#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "common/retry.h"
#include "kv/cluster.h"
#include "net/fault_injector.h"
#include "obs/metrics.h"
#include "sim/node.h"

namespace diesel::kv {
namespace {

class MGetTest : public ::testing::Test {
 protected:
  MGetTest() : cluster_(5), fabric_(cluster_) {
    KvClusterOptions opts;
    opts.nodes = {1, 2, 3, 4};
    kv_ = std::make_unique<KvCluster>(fabric_, opts);
    for (int i = 0; i < 100; ++i) {
      EXPECT_TRUE(kv_->Put(clock_, 0, "k" + std::to_string(i),
                           "v" + std::to_string(i)).ok());
    }
  }

  sim::Cluster cluster_;
  net::Fabric fabric_;
  std::unique_ptr<KvCluster> kv_;
  sim::VirtualClock clock_;
};

TEST_F(MGetTest, ResultsAlignWithKeys) {
  std::vector<std::string> keys{"k5", "k99", "missing", "k0", "k5"};
  auto values = kv_->MGet(clock_, 0, keys);
  ASSERT_TRUE(values.ok());
  ASSERT_EQ(values->size(), keys.size());
  EXPECT_EQ((*values)[0], "v5");
  EXPECT_EQ((*values)[1], "v99");
  EXPECT_FALSE((*values)[2].has_value());
  EXPECT_EQ((*values)[3], "v0");
  EXPECT_EQ((*values)[4], "v5");  // duplicates allowed
}

TEST_F(MGetTest, EmptyKeyListIsNoop) {
  Nanos before = clock_.now();
  auto values = kv_->MGet(clock_, 0, {});
  ASSERT_TRUE(values.ok());
  EXPECT_TRUE(values->empty());
  EXPECT_EQ(clock_.now(), before);  // no RPCs issued
}

TEST_F(MGetTest, BatchedGetIsFasterThanSingles) {
  std::vector<std::string> keys;
  for (int i = 0; i < 64; ++i) keys.push_back("k" + std::to_string(i));
  sim::VirtualClock batched, single;
  ASSERT_TRUE(kv_->MGet(batched, 0, keys).ok());
  for (const auto& k : keys) {
    ASSERT_TRUE(kv_->Get(single, 0, k).ok());
  }
  EXPECT_LT(batched.now(), single.now() / 2);
}

TEST_F(MGetTest, DownShardFailsOnlyBatchesTouchingIt) {
  // Find one key on the shard we will kill and one elsewhere. With 16
  // shards and a balanced ring, both exist among a few hundred probes.
  std::string victim, live;
  for (int i = 0; i < 1000 && (victim.empty() || live.empty()); ++i) {
    std::string key = "probe" + std::to_string(i);
    if (kv_->OwnerShard(key) == 7) {
      if (victim.empty()) victim = key;
    } else if (live.empty()) {
      live = key;
    }
  }
  ASSERT_FALSE(victim.empty());
  ASSERT_FALSE(live.empty());
  ASSERT_TRUE(kv_->Put(clock_, 0, live, "alive").ok());

  kv_->FailShard(7);
  EXPECT_TRUE(kv_->MGet(clock_, 0, {live, victim}).status().IsUnavailable());
  auto good = kv_->MGet(clock_, 0, {live});
  ASSERT_TRUE(good.ok());
  EXPECT_EQ((*good)[0], "alive");
}

// The per-shard sub-requests of one MGet are in flight together, so a
// batch spanning eight or more shards costs well under twice a one-shard
// MGet. Each measurement starts long after the fixture's puts, on idle
// devices.
TEST_F(MGetTest, ShardSubRequestsOverlap) {
  std::vector<std::string> keys;  // one key per shard
  std::set<uint32_t> shards;
  for (int i = 0; i < 100; ++i) {
    std::string key = "k" + std::to_string(i);
    if (shards.insert(kv_->OwnerShard(key)).second) keys.push_back(key);
  }
  ASSERT_GE(shards.size(), 8u);

  sim::VirtualClock one(Millis(1000));
  ASSERT_TRUE(kv_->MGet(one, 0, {keys.front()}).ok());
  sim::VirtualClock many(Millis(2000));
  auto values = kv_->MGet(many, 0, keys);
  ASSERT_TRUE(values.ok());
  for (const auto& v : *values) EXPECT_TRUE(v.has_value());
  EXPECT_LT(many.now() - Millis(2000), 2 * (one.now() - Millis(1000)));
}

/// A cluster of its own, so device timelines and fault dice start fresh.
struct FreshKv {
  explicit FreshKv(KvClusterOptions opts) : cluster(5), fabric(cluster) {
    opts.nodes = {1, 2, 3, 4};
    kv = std::make_unique<KvCluster>(fabric, opts);
  }

  sim::Cluster cluster;
  net::Fabric fabric;
  std::unique_ptr<KvCluster> kv;
};

// A down shard fails the call, but every other touched shard is still
// asked, and the caller's clock moves past those live sub-requests. The
// down shard's sub-request spends only its backoffs (the shard refuses
// before any RPC), so the call takes as long as the longer of the live
// group alone and those backoffs.
TEST(MGetFanOutTest, DownShardStillWaitsForLiveSubRequests) {
  FreshKv f(KvClusterOptions{});
  KvCluster& kv = *f.kv;
  // The victim is shard 0, first in shard order; the live key is elsewhere.
  std::string victim, live;
  for (int i = 0; i < 1000 && (victim.empty() || live.empty()); ++i) {
    std::string key = "probe" + std::to_string(i);
    std::string& slot = kv.OwnerShard(key) == 0 ? victim : live;
    if (slot.empty()) slot = key;
  }
  ASSERT_FALSE(victim.empty());
  ASSERT_FALSE(live.empty());
  sim::VirtualClock setup;
  ASSERT_TRUE(kv.Put(setup, 0, live, "alive").ok());
  sim::VirtualClock alone(Millis(1000));
  ASSERT_TRUE(kv.MGet(alone, 0, {live}).ok());

  const obs::Counter& ops =
      obs::Metrics().GetCounter("kv.ops", {{"op", "mget"}});
  const obs::Counter& failures =
      obs::Metrics().GetCounter("kv.failures", {{"op", "mget"}});
  const uint64_t ops0 = ops.value();
  const uint64_t failures0 = failures.value();
  kv.FailShard(0);
  sim::VirtualClock clock(Millis(2000));
  EXPECT_TRUE(kv.MGet(clock, 0, {victim, live}).status().IsUnavailable());
  const RetryPolicy retry{};
  Nanos backoffs = 0;
  for (uint32_t a = 1; a < retry.max_attempts; ++a) {
    backoffs += retry.BackoffBefore(a);
  }
  EXPECT_EQ(clock.now() - Millis(2000),
            std::max(alone.now() - Millis(1000), backoffs));
  EXPECT_EQ(ops.value() - ops0, 2u);  // one op per shard group
  EXPECT_EQ(failures.value() - failures0, 1u);
}

// Under seeded RPC drops the fan-out's retries still replay exactly: two
// runs with the same seed read the same values and end at the same time.
TEST(MGetFanOutTest, SeededDropsReplayExactly) {
  struct Run {
    std::vector<std::optional<std::string>> values;
    Nanos end = 0;
    uint64_t drops = 0;
  };
  auto run = [] {
    FreshKv f(KvClusterOptions{});
    std::vector<std::string> keys;
    sim::VirtualClock setup;
    for (int i = 0; i < 64; ++i) {
      keys.push_back("k" + std::to_string(i));
      EXPECT_TRUE(f.kv->Put(setup, 0, keys.back(), "v" + keys.back()).ok());
    }
    net::FaultPlan plan;
    plan.seed = 11;
    plan.rpc_drop_prob = 0.2;
    plan.fault_detect_timeout = Micros(100);
    net::FaultInjector inj(plan);
    f.fabric.set_fault_injector(&inj);
    sim::VirtualClock clock(Millis(1000));
    auto values = f.kv->MGet(clock, 0, keys);
    f.fabric.set_fault_injector(nullptr);
    EXPECT_TRUE(values.ok()) << values.status().ToString();
    Run r;
    if (values.ok()) r.values = std::move(values).value();
    r.end = clock.now();
    r.drops = inj.stats().rpc_drops;
    return r;
  };
  const Run a = run();
  const Run b = run();
  EXPECT_GT(a.drops, 0u);
  ASSERT_EQ(a.values.size(), 64u);
  for (size_t i = 0; i < a.values.size(); ++i) {
    EXPECT_EQ(a.values[i], "vk" + std::to_string(i));
  }
  EXPECT_EQ(a.values, b.values);
  EXPECT_EQ(a.end, b.end);
  EXPECT_EQ(a.drops, b.drops);
}

}  // namespace
}  // namespace diesel::kv
