#include "ostore/striped_store.h"

#include <gtest/gtest.h>

#include "net/fabric.h"
#include "ostore/mem_store.h"
#include "ostore/modeled_store.h"
#include "sim/calibration.h"

namespace diesel::ostore {
namespace {

class StripedStoreTest : public ::testing::Test {
 protected:
  StripedStoreTest() {
    for (int i = 0; i < 4; ++i) {
      backings_.push_back(std::make_unique<MemStore>());
      raw_.push_back(backings_.back().get());
    }
    striped_ = std::make_unique<StripedStore>(raw_);
  }

  std::vector<std::unique_ptr<MemStore>> backings_;
  std::vector<ObjectStore*> raw_;
  std::unique_ptr<StripedStore> striped_;
  sim::VirtualClock clock_;
};

TEST_F(StripedStoreTest, RoundTripAndPlacementStable) {
  for (int i = 0; i < 100; ++i) {
    std::string key = "obj" + std::to_string(i);
    ASSERT_TRUE(
        striped_->Put(clock_, 0, key, ShareBytes(Bytes(10, uint8_t(i)))).ok());
    EXPECT_EQ(striped_->OwnerOf(key), striped_->OwnerOf(key));
    auto got = striped_->Get(clock_, 0, key);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got.value()->front(), uint8_t(i));
  }
  EXPECT_EQ(striped_->NumObjects(), 100u);
  EXPECT_EQ(striped_->TotalBytes(), 1000u);
}

TEST_F(StripedStoreTest, ObjectsSpreadAcrossGateways) {
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(striped_->Put(clock_, 0, "k" + std::to_string(i),
                              ShareBytes(Bytes(1, 0))).ok());
  }
  size_t nonempty = 0;
  for (auto& b : backings_) {
    if (b->NumObjects() > 0) ++nonempty;
  }
  EXPECT_EQ(nonempty, 4u);
}

TEST_F(StripedStoreTest, ListMergesSortedAcrossGateways) {
  for (int i = 0; i < 50; ++i) {
    char buf[16];
    std::snprintf(buf, sizeof(buf), "p/%03d", i);
    ASSERT_TRUE(striped_->Put(clock_, 0, buf, ShareBytes(Bytes(1, 0))).ok());
  }
  ASSERT_TRUE(striped_->Put(clock_, 0, "q/x", ShareBytes(Bytes(1, 0))).ok());
  auto keys = striped_->List(clock_, 0, "p/");
  ASSERT_TRUE(keys.ok());
  ASSERT_EQ(keys->size(), 50u);
  EXPECT_TRUE(std::is_sorted(keys->begin(), keys->end()));
}

TEST_F(StripedStoreTest, DeleteAndRangeRouteToOwner) {
  Bytes data(100);
  for (int i = 0; i < 100; ++i) data[i] = static_cast<uint8_t>(i);
  ASSERT_TRUE(striped_->Put(clock_, 0, "r", ShareBytes(data)).ok());
  auto range = striped_->GetRange(clock_, 0, "r", 50, 10);
  ASSERT_TRUE(range.ok());
  EXPECT_EQ(range->front(), 50);
  EXPECT_EQ(striped_->Size(clock_, 0, "r").value(), 100u);
  ASSERT_TRUE(striped_->Delete(clock_, 0, "r").ok());
  EXPECT_FALSE(striped_->Contains("r"));
}

TEST(StripedModeledTest, AggregateBandwidthScalesWithGateways) {
  // Two deployments: 1 gateway vs 4 gateways; 64 closed-loop readers of 4MB
  // objects saturate a single gateway's 16 channels, so striping must lift
  // aggregate throughput substantially.
  auto measure = [](size_t gateways) {
    // 4 client nodes so the client-side NIC is not the bottleneck.
    sim::Cluster cluster(4 + gateways);
    net::Fabric fabric(cluster);
    std::vector<std::unique_ptr<MemStore>> backings;
    std::vector<std::unique_ptr<ModeledStore>> modeled;
    std::vector<ObjectStore*> raw;
    for (size_t g = 0; g < gateways; ++g) {
      backings.push_back(std::make_unique<MemStore>());
      modeled.push_back(std::make_unique<ModeledStore>(
          fabric, static_cast<sim::NodeId>(4 + g), sim::SsdClusterSpec(),
          backings.back().get()));
      raw.push_back(modeled.back().get());
    }
    StripedStore striped(raw);
    sim::VirtualClock setup;
    SharedBytes blob = ShareBytes(Bytes(4 << 20, 1));
    for (int i = 0; i < 32; ++i) {
      // Write to backing directly (placement via striped) at zero virtual
      // cost is unnecessary; timing reset below.
      if (!striped.Put(setup, 0, "o" + std::to_string(i), blob).ok()) abort();
    }
    for (auto& m : modeled) {
      m->device().Reset();
      m->write_device().Reset();
    }
    cluster.ResetDevices();
    std::vector<sim::VirtualClock> clocks(64);
    for (int round = 0; round < 2; ++round) {
      for (auto& c : clocks) {
        size_t idx = static_cast<size_t>(&c - clocks.data());
        size_t pick = (round * 7 + idx) % 32;
        auto r = striped.Get(c, static_cast<sim::NodeId>(idx % 4),
                             "o" + std::to_string(pick));
        if (!r.ok()) abort();
      }
    }
    Nanos end = 0;
    for (auto& c : clocks) end = std::max(end, c.now());
    return 64 * 2 * (4.0 * (1 << 20)) / ToSeconds(end);
  };
  double one = measure(1);
  double four = measure(4);
  EXPECT_GT(four, 2.0 * one);
}

}  // namespace
}  // namespace diesel::ostore
