// Conformance suite run against every ObjectStore implementation
// (typed tests), plus implementation-specific checks.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <thread>

#include "ostore/dir_store.h"
#include "ostore/mem_store.h"
#include "ostore/modeled_store.h"
#include "ostore/tiered_store.h"
#include "sim/calibration.h"

namespace diesel::ostore {
namespace {

SharedBytes Blob(std::initializer_list<uint8_t> v) {
  return ShareBytes(Bytes(v));
}
SharedBytes Filled(size_t n, uint8_t fill) {
  return ShareBytes(Bytes(n, fill));
}

// ---- shared conformance fixture -------------------------------------------

struct MemFactory {
  static std::unique_ptr<ObjectStore> Make() {
    return std::make_unique<MemStore>();
  }
};

struct DirFactory {
  static std::unique_ptr<ObjectStore> Make() {
    // ctest runs each test in its own process, often in parallel; the
    // directory name must be unique across processes, not just within one.
    static int counter = 0;
    auto dir = std::filesystem::temp_directory_path() /
               ("diesel_dirstore_test_" + std::to_string(::getpid()) + "_" +
                std::to_string(counter++));
    std::filesystem::remove_all(dir);
    return std::make_unique<DirStore>(dir);
  }
};

template <typename Factory>
class ObjectStoreConformance : public ::testing::Test {
 protected:
  ObjectStoreConformance() : store_(Factory::Make()) {}
  std::unique_ptr<ObjectStore> store_;
  sim::VirtualClock clock_;
};

using Factories = ::testing::Types<MemFactory, DirFactory>;
TYPED_TEST_SUITE(ObjectStoreConformance, Factories);

TYPED_TEST(ObjectStoreConformance, PutGetRoundTrip) {
  SharedBytes data = Blob({1, 2, 3, 4, 5});
  ASSERT_TRUE(this->store_->Put(this->clock_, 0, "a/b", data).ok());
  auto got = this->store_->Get(this->clock_, 0, "a/b");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got.value(), *data);
  EXPECT_TRUE(this->store_->Contains("a/b"));
  EXPECT_EQ(this->store_->NumObjects(), 1u);
}

TYPED_TEST(ObjectStoreConformance, GetMissingIsNotFound) {
  EXPECT_TRUE(this->store_->Get(this->clock_, 0, "nope").status().IsNotFound());
  EXPECT_FALSE(this->store_->Contains("nope"));
}

TYPED_TEST(ObjectStoreConformance, PutOverwrites) {
  ASSERT_TRUE(this->store_->Put(this->clock_, 0, "k", Blob({1, 2})).ok());
  ASSERT_TRUE(this->store_->Put(this->clock_, 0, "k", Blob({9})).ok());
  EXPECT_EQ(*this->store_->Get(this->clock_, 0, "k").value(), Bytes{9});
  EXPECT_EQ(this->store_->NumObjects(), 1u);
}

TYPED_TEST(ObjectStoreConformance, GetRangeSlices) {
  Bytes data;
  for (int i = 0; i < 100; ++i) data.push_back(static_cast<uint8_t>(i));
  ASSERT_TRUE(this->store_->Put(this->clock_, 0, "r", ShareBytes(data)).ok());
  auto mid = this->store_->GetRange(this->clock_, 0, "r", 10, 5);
  ASSERT_TRUE(mid.ok());
  EXPECT_EQ(mid.value(), Bytes({10, 11, 12, 13, 14}));
  auto whole = this->store_->GetRange(this->clock_, 0, "r", 0, 100);
  ASSERT_TRUE(whole.ok());
  EXPECT_EQ(whole->size(), 100u);
}

TYPED_TEST(ObjectStoreConformance, GetRangePastEndIsOutOfRange) {
  ASSERT_TRUE(this->store_->Put(this->clock_, 0, "r", Blob({1, 2, 3})).ok());
  auto r = this->store_->GetRange(this->clock_, 0, "r", 2, 5);
  EXPECT_EQ(r.status().code(), StatusCode::kOutOfRange);
}

// offset + len would wrap around to 8 and pass an additive bounds check.
TYPED_TEST(ObjectStoreConformance, GetRangeWrappingOffsetIsOutOfRange) {
  ASSERT_TRUE(this->store_->Put(this->clock_, 0, "r", Filled(100, 1)).ok());
  auto r = this->store_->GetRange(this->clock_, 0, "r", UINT64_MAX - 7, 16);
  EXPECT_EQ(r.status().code(), StatusCode::kOutOfRange);
}

TYPED_TEST(ObjectStoreConformance, DeleteRemoves) {
  ASSERT_TRUE(this->store_->Put(this->clock_, 0, "d", Blob({7})).ok());
  ASSERT_TRUE(this->store_->Delete(this->clock_, 0, "d").ok());
  EXPECT_TRUE(this->store_->Delete(this->clock_, 0, "d").IsNotFound());
  EXPECT_EQ(this->store_->NumObjects(), 0u);
}

TYPED_TEST(ObjectStoreConformance, ListSortedWithPrefix) {
  ASSERT_TRUE(this->store_->Put(this->clock_, 0, "p/3", Blob({3})).ok());
  ASSERT_TRUE(this->store_->Put(this->clock_, 0, "p/1", Blob({1})).ok());
  ASSERT_TRUE(this->store_->Put(this->clock_, 0, "p/2", Blob({2})).ok());
  ASSERT_TRUE(this->store_->Put(this->clock_, 0, "q/9", Blob({9})).ok());
  auto keys = this->store_->List(this->clock_, 0, "p/");
  ASSERT_TRUE(keys.ok());
  EXPECT_EQ(keys.value(),
            (std::vector<std::string>{"p/1", "p/2", "p/3"}));
}

TYPED_TEST(ObjectStoreConformance, SizeReportsLength) {
  ASSERT_TRUE(this->store_->Put(this->clock_, 0, "s", Filled(1234, 0)).ok());
  EXPECT_EQ(this->store_->Size(this->clock_, 0, "s").value(), 1234u);
  EXPECT_TRUE(this->store_->Size(this->clock_, 0, "zz").status().IsNotFound());
}

TYPED_TEST(ObjectStoreConformance, TotalBytesTracksContent) {
  ASSERT_TRUE(this->store_->Put(this->clock_, 0, "a", Filled(100, 0)).ok());
  ASSERT_TRUE(this->store_->Put(this->clock_, 0, "b", Filled(50, 0)).ok());
  EXPECT_EQ(this->store_->TotalBytes(), 150u);
  ASSERT_TRUE(this->store_->Put(this->clock_, 0, "a", Filled(10, 0)).ok());
  EXPECT_EQ(this->store_->TotalBytes(), 60u);
}

TYPED_TEST(ObjectStoreConformance, EmptyBlobAllowed) {
  ASSERT_TRUE(this->store_->Put(this->clock_, 0, "empty", Blob({})).ok());
  auto got = this->store_->Get(this->clock_, 0, "empty");
  ASSERT_TRUE(got.ok());
  EXPECT_TRUE(got.value()->empty());
}

// ---- Blob ownership: Get shares what Put stored -----------------------------

TEST(BlobOwnershipTest, MemStoreGetReturnsThePutPointer) {
  MemStore store;
  sim::VirtualClock clock;
  SharedBytes blob = Filled(64, 3);
  ASSERT_TRUE(store.Put(clock, 0, "k", blob).ok());
  EXPECT_EQ(store.Get(clock, 0, "k").value(), blob);
  EXPECT_EQ(store.Get(clock, 0, "k").value(), blob);
}

TEST(BlobOwnershipTest, ModeledStoreSharesThePutPointer) {
  sim::Cluster cluster(2);
  net::Fabric fabric(cluster);
  MemStore backing;
  ModeledStore modeled(fabric, 1, sim::SsdClusterSpec(), &backing);
  sim::VirtualClock clock;
  for (int i = 0; i < 8; ++i) {
    const std::string key = "k" + std::to_string(i);
    SharedBytes blob = Filled(4096, static_cast<uint8_t>(i));
    ASSERT_TRUE(modeled.Put(clock, 0, key, blob).ok());
    EXPECT_EQ(modeled.Get(clock, 0, key).value(), blob) << key;
    EXPECT_EQ(backing.Get(clock, 0, key).value(), blob) << key;
  }
}

TEST(BlobOwnershipTest, TieredPromotionSharesTheSlowTierBlob) {
  MemStore fast, slow;
  TieredStore tiered(&fast, &slow, /*fast_capacity_bytes=*/0);
  sim::VirtualClock clock;
  SharedBytes blob = Filled(256, 9);
  ASSERT_TRUE(tiered.Put(clock, 0, "k", blob).ok());
  EXPECT_EQ(tiered.Get(clock, 0, "k").value(), blob);  // slow hit, promotes
  ASSERT_EQ(tiered.stats().promotions, 1u);
  EXPECT_EQ(fast.Get(clock, 0, "k").value(), blob);
  EXPECT_EQ(tiered.Get(clock, 0, "k").value(), blob);  // fast hit
  EXPECT_EQ(tiered.stats().fast_hits, 1u);
}

TEST(BlobOwnershipTest, OverwriteAndDeleteLeaveHeldBlobIntact) {
  MemStore store;
  sim::VirtualClock clock;
  ASSERT_TRUE(store.Put(clock, 0, "k", Filled(1000, 0x11)).ok());
  SharedBytes held = store.Get(clock, 0, "k").value();
  ASSERT_TRUE(store.Put(clock, 0, "k", Filled(10, 0x22)).ok());
  EXPECT_EQ(*store.Get(clock, 0, "k").value(), Bytes(10, 0x22));
  EXPECT_EQ(*held, Bytes(1000, 0x11));
  SharedBytes held2 = store.Get(clock, 0, "k").value();
  ASSERT_TRUE(store.Delete(clock, 0, "k").ok());
  EXPECT_EQ(store.TotalBytes(), 0u);
  EXPECT_EQ(*held, Bytes(1000, 0x11));
  EXPECT_EQ(*held2, Bytes(10, 0x22));
}

// A writer overwrites and deletes one key while readers hold and scan what
// Get returned: every blob a reader sees is whole and uniform (run under
// tsan, this also checks the map and refcount handoff for races).
TEST(BlobOwnershipTest, ConcurrentOverwriteNeverTearsAHeldBlob) {
  MemStore store;
  sim::VirtualClock setup;
  ASSERT_TRUE(store.Put(setup, 0, "k", Filled(4096, 0)).ok());
  std::atomic<bool> stop{false};
  std::atomic<int> torn{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      sim::VirtualClock clock;
      while (!stop.load()) {
        Result<SharedBytes> got = store.Get(clock, 0, "k");
        if (!got.ok()) continue;  // between a Delete and the next Put
        const Bytes& b = *got.value();
        if (b.size() != 4096 ||
            std::count(b.begin(), b.end(), b.front()) != 4096)
          torn.fetch_add(1);
      }
    });
  }
  sim::VirtualClock clock;
  for (int i = 1; i <= 2000; ++i) {
    if (i % 7 == 0) {
      ASSERT_TRUE(store.Delete(clock, 0, "k").ok());
    }
    ASSERT_TRUE(
        store.Put(clock, 0, "k", Filled(4096, static_cast<uint8_t>(i))).ok());
  }
  stop.store(true);
  for (auto& t : readers) t.join();
  EXPECT_EQ(torn.load(), 0);
}

// ---- ModeledStore timing ----------------------------------------------------

class ModeledStoreTest : public ::testing::Test {
 protected:
  ModeledStoreTest()
      : cluster_(3), fabric_(cluster_),
        modeled_(fabric_, 2, sim::SsdClusterSpec(), &backing_) {}
  sim::Cluster cluster_;
  net::Fabric fabric_;
  MemStore backing_;
  ModeledStore modeled_;
};

TEST_F(ModeledStoreTest, ChargesDeviceAndNetworkTime) {
  sim::VirtualClock clock;
  ASSERT_TRUE(modeled_.Put(clock, 0, "x", Filled(1 << 20, 1)).ok());
  EXPECT_GT(clock.now(), sim::SsdClusterSpec().latency);
  // Writes go to the (possibly distinct) write device; reads to the read one.
  EXPECT_EQ(modeled_.write_device().ops_served(), 1u);
  EXPECT_EQ(modeled_.device().ops_served(), 0u);
  ASSERT_TRUE(modeled_.Get(clock, 0, "x").ok());
  EXPECT_EQ(modeled_.device().ops_served(), 1u);
}

TEST_F(ModeledStoreTest, LargerReadsTakeLonger) {
  sim::VirtualClock w;
  ASSERT_TRUE(modeled_.Put(w, 0, "small", Filled(4 << 10, 1)).ok());
  ASSERT_TRUE(modeled_.Put(w, 0, "large", Filled(4 << 20, 1)).ok());
  sim::VirtualClock s, l;
  ASSERT_TRUE(modeled_.Get(s, 0, "small").ok());
  ASSERT_TRUE(modeled_.Get(l, 1, "large").ok());
  EXPECT_GT(l.now(), s.now());
}

TEST_F(ModeledStoreTest, RangeReadChargesOnlyRangeBytes) {
  sim::VirtualClock w;
  ASSERT_TRUE(modeled_.Put(w, 0, "big", Filled(8 << 20, 1)).ok());
  sim::VirtualClock whole, range;
  ASSERT_TRUE(modeled_.Get(whole, 0, "big").ok());
  ASSERT_TRUE(modeled_.GetRange(range, 1, "big", 0, 4 << 10).ok());
  EXPECT_LT(range.now(), whole.now());
}

TEST_F(ModeledStoreTest, FailedGatewayNodeMakesStoreUnavailable) {
  sim::VirtualClock clock;
  ASSERT_TRUE(modeled_.Put(clock, 0, "x", Filled(10, 1)).ok());
  cluster_.FailNode(2);
  EXPECT_TRUE(modeled_.Get(clock, 0, "x").status().IsUnavailable());
}

}  // namespace
}  // namespace diesel::ostore
