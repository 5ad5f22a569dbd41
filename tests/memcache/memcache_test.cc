#include "memcache/memcache.h"

#include <gtest/gtest.h>

namespace diesel::memcache {
namespace {

class MemcacheTest : public ::testing::Test {
 protected:
  MemcacheTest() : cluster_(8), fabric_(cluster_) {
    MemcacheOptions opts;
    opts.nodes = {0, 1, 2, 3};
    mc_ = std::make_unique<MemcachedCluster>(fabric_, opts);
  }

  sim::Cluster cluster_;
  net::Fabric fabric_;
  std::unique_ptr<MemcachedCluster> mc_;
  sim::VirtualClock clock_;
};

TEST_F(MemcacheTest, SetGetDelete) {
  ASSERT_TRUE(mc_->Set(clock_, 4, "item", "payload").ok());
  EXPECT_EQ(mc_->Get(clock_, 4, "item").value(), "payload");
  ASSERT_TRUE(mc_->Delete(clock_, 4, "item").ok());
  EXPECT_TRUE(mc_->Get(clock_, 4, "item").status().IsNotFound());
}

TEST_F(MemcacheTest, MissingKeyIsMiss) {
  EXPECT_TRUE(mc_->Get(clock_, 4, "nothing").status().IsNotFound());
}

TEST_F(MemcacheTest, DisabledInstanceTurnsHitsIntoMisses) {
  // Fill enough items that every instance owns some.
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(mc_->Set(clock_, 4, "f" + std::to_string(i), "v").ok());
  }
  size_t before = mc_->TotalItems();
  EXPECT_EQ(before, 100u);

  // Disable one instance (the Fig. 6 experiment). Keys it owned now miss,
  // keys elsewhere still hit, and the ring does NOT remap.
  mc_->DisableInstance(1);
  size_t hits = 0, misses = 0;
  for (int i = 0; i < 100; ++i) {
    std::string key = "f" + std::to_string(i);
    auto v = mc_->Get(clock_, 4, key);
    if (v.ok()) {
      ++hits;
      EXPECT_NE(mc_->OwnerInstance(key), 1u);
    } else {
      ++misses;
      EXPECT_EQ(mc_->OwnerInstance(key), 1u);
    }
  }
  EXPECT_GT(misses, 0u);
  EXPECT_GT(hits, 0u);
  EXPECT_EQ(hits + misses, 100u);
}

TEST_F(MemcacheTest, DisabledInstanceRejectsWrites) {
  std::string victim_key;
  for (int i = 0;; ++i) {
    victim_key = "probe" + std::to_string(i);
    if (mc_->OwnerInstance(victim_key) == 2) break;
  }
  mc_->DisableInstance(2);
  EXPECT_TRUE(mc_->Set(clock_, 4, victim_key, "v").IsUnavailable());
}

TEST_F(MemcacheTest, EveryOpPaysNetworkTime) {
  Nanos t0 = clock_.now();
  ASSERT_TRUE(mc_->Set(clock_, 4, "k", "v").ok());
  Nanos t1 = clock_.now();
  EXPECT_GT(t1, t0);
  ASSERT_TRUE(mc_->Get(clock_, 4, "k").ok());
  EXPECT_GT(clock_.now(), t1);
}

TEST_F(MemcacheTest, DeadInstanceGetPaysFailureDetectionCost) {
  // Fig. 6's collapse mechanism: a get routed to a disabled instance costs
  // connection-failure detection, far more than a live miss.
  std::string dead_key, live_key;
  for (int i = 0;; ++i) {
    std::string k = "probe" + std::to_string(i);
    if (mc_->OwnerInstance(k) == 1 && dead_key.empty()) dead_key = k;
    if (mc_->OwnerInstance(k) == 0 && live_key.empty()) live_key = k;
    if (!dead_key.empty() && !live_key.empty()) break;
  }
  mc_->DisableInstance(1);
  sim::VirtualClock live, dead;
  EXPECT_TRUE(mc_->Get(live, 4, live_key).status().IsNotFound());
  EXPECT_TRUE(mc_->Get(dead, 4, dead_key).status().IsNotFound());
  EXPECT_GT(dead.now(), 50 * live.now());
}

TEST_F(MemcacheTest, NoBatchingMakesNWritesCostNRoundTrips) {
  // 50 writes must cost at least 50x the single-write floor (per-item RPC,
  // §6.2: libMemcached has no batch write mode).
  sim::VirtualClock one;
  ASSERT_TRUE(mc_->Set(one, 4, "single", "v").ok());
  Nanos single_cost = one.now();

  sim::VirtualClock many;
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(mc_->Set(many, 5, "m" + std::to_string(i), "v").ok());
  }
  EXPECT_GE(many.now(), 40 * single_cost);  // allow some parallel slack
}

}  // namespace
}  // namespace diesel::memcache
