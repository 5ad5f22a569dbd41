#include "kv/cluster.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "sim/node.h"

namespace diesel::kv {
namespace {

class KvClusterTest : public ::testing::Test {
 protected:
  KvClusterTest() : cluster_(6), fabric_(cluster_) {
    KvClusterOptions opts;
    opts.nodes = {2, 3, 4, 5};
    opts.shards_per_node = 4;
    kv_ = std::make_unique<KvCluster>(fabric_, opts);
  }

  sim::Cluster cluster_;
  net::Fabric fabric_;
  std::unique_ptr<KvCluster> kv_;
  sim::VirtualClock clock_;
};

TEST_F(KvClusterTest, ShardLayoutMatchesOptions) {
  EXPECT_EQ(kv_->NumShards(), 16u);
  EXPECT_EQ(kv_->ShardNode(0), 2u);
  EXPECT_EQ(kv_->ShardNode(15), 5u);
}

TEST_F(KvClusterTest, PutGetDeleteRoundTrip) {
  ASSERT_TRUE(kv_->Put(clock_, 0, "alpha", "1").ok());
  auto v = kv_->Get(clock_, 0, "alpha");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, "1");
  ASSERT_TRUE(kv_->Delete(clock_, 0, "alpha").ok());
  EXPECT_TRUE(kv_->Get(clock_, 0, "alpha").status().IsNotFound());
  EXPECT_TRUE(kv_->Delete(clock_, 0, "alpha").IsNotFound());
}

TEST_F(KvClusterTest, GetMissingIsNotFound) {
  EXPECT_TRUE(kv_->Get(clock_, 0, "ghost").status().IsNotFound());
}

TEST_F(KvClusterTest, PutOverwrites) {
  ASSERT_TRUE(kv_->Put(clock_, 0, "k", "old").ok());
  ASSERT_TRUE(kv_->Put(clock_, 0, "k", "new").ok());
  EXPECT_EQ(kv_->Get(clock_, 0, "k").value(), "new");
  EXPECT_EQ(kv_->TotalKeys(), 1u);
}

TEST_F(KvClusterTest, BatchPutStoresEverything) {
  WriteBatch batch;
  for (int i = 0; i < 200; ++i) {
    batch.Put("key" + std::to_string(i), "v" + std::to_string(i));
  }
  ASSERT_TRUE(kv_->BatchPut(clock_, 0, batch).ok());
  EXPECT_EQ(kv_->TotalKeys(), 200u);
  EXPECT_EQ(kv_->Get(clock_, 0, "key123").value(), "v123");
}

TEST_F(KvClusterTest, BatchPutIsFasterThanSingles) {
  WriteBatch batch;
  for (int i = 0; i < 100; ++i) {
    batch.Put("b" + std::to_string(i), "v");
  }
  sim::VirtualClock batched, single;
  ASSERT_TRUE(kv_->BatchPut(batched, 0, batch).ok());
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(kv_->Put(single, 1, "s" + std::to_string(i), "v").ok());
  }
  EXPECT_LT(batched.now(), single.now());
}

TEST_F(KvClusterTest, PScanReturnsSortedPrefixMatches) {
  ASSERT_TRUE(kv_->Put(clock_, 0, "p/c", "3").ok());
  ASSERT_TRUE(kv_->Put(clock_, 0, "p/a", "1").ok());
  ASSERT_TRUE(kv_->Put(clock_, 0, "p/b", "2").ok());
  ASSERT_TRUE(kv_->Put(clock_, 0, "q/x", "9").ok());
  auto scan = kv_->PScan(clock_, 0, "p/");
  ASSERT_TRUE(scan.ok());
  ASSERT_EQ(scan->size(), 3u);
  EXPECT_EQ((*scan)[0].key, "p/a");
  EXPECT_EQ((*scan)[1].key, "p/b");
  EXPECT_EQ((*scan)[2].key, "p/c");
}

TEST_F(KvClusterTest, PScanHonoursLimit) {
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(kv_->Put(clock_, 0, "lim/" + std::to_string(i), "v").ok());
  }
  auto scan = kv_->PScan(clock_, 0, "lim/", 10);
  ASSERT_TRUE(scan.ok());
  EXPECT_EQ(scan->size(), 10u);
}

TEST_F(KvClusterTest, PScanMergeMatchesSortedOrder) {
  // Keys on every shard under "m/", plus a sparse prefix "s/" that only
  // some shards hold.
  std::vector<std::string> all;
  for (int i = 0; i < 400; ++i) all.push_back("m/" + std::to_string(i * 7919));
  for (int i = 0; i < 3; ++i) all.push_back("s/" + std::to_string(i));
  WriteBatch batch;
  for (const std::string& k : all) batch.Put(k, "v:" + k);
  ASSERT_TRUE(kv_->BatchPut(clock_, 0, batch).ok());
  std::vector<bool> holds_m(kv_->NumShards()), holds_s(kv_->NumShards());
  for (const std::string& k : all) {
    (k[0] == 'm' ? holds_m : holds_s)[kv_->OwnerShard(k)] = true;
  }
  ASSERT_EQ(std::count(holds_m.begin(), holds_m.end(), true),
            static_cast<long>(kv_->NumShards()));
  ASSERT_LT(std::count(holds_s.begin(), holds_s.end(), true),
            static_cast<long>(kv_->NumShards()));

  for (const std::string prefix : {"m/", "s/", "", "none/"}) {
    std::vector<std::string> want;
    for (const std::string& k : all) {
      if (k.compare(0, prefix.size(), prefix) == 0) want.push_back(k);
    }
    std::sort(want.begin(), want.end());
    for (size_t limit : {size_t{0}, size_t{1}, want.size() / 2}) {
      auto scan = kv_->PScan(clock_, 0, prefix, limit);
      ASSERT_TRUE(scan.ok()) << scan.status().ToString();
      std::vector<ScanEntry> sorted = *scan;
      std::sort(sorted.begin(), sorted.end(),
                [](const ScanEntry& a, const ScanEntry& b) {
                  return a.key < b.key;
                });
      size_t n = limit == 0 ? want.size() : std::min(limit, want.size());
      ASSERT_EQ(scan->size(), n) << prefix << " limit " << limit;
      for (size_t i = 0; i < n; ++i) {
        EXPECT_EQ((*scan)[i].key, sorted[i].key);
        EXPECT_EQ((*scan)[i].key, want[i]);
        EXPECT_EQ((*scan)[i].value, "v:" + want[i]);
      }
    }
  }
}

TEST_F(KvClusterTest, ScanVisitsOneKeyOrderedRunPerShard) {
  WriteBatch batch;
  for (int i = 0; i < 300; ++i) {
    batch.Put("v/" + std::to_string(i * 104729), std::to_string(i));
  }
  batch.Put("w/0", "other prefix");
  ASSERT_TRUE(kv_->BatchPut(clock_, 0, batch).ok());
  std::vector<std::pair<uint32_t, std::string>> seen;
  ASSERT_TRUE(kv_->Scan(clock_, 0, "v/",
                        [&](uint32_t shard, std::string_view key,
                            std::string_view value) {
                          EXPECT_EQ(shard, kv_->OwnerShard(std::string(key)));
                          EXPECT_FALSE(value.empty());
                          seen.emplace_back(shard, key);
                        })
                  .ok());
  ASSERT_EQ(seen.size(), 300u);
  // (shard, key) ascending: shards in order, each shard's keys in order.
  EXPECT_TRUE(std::is_sorted(seen.begin(), seen.end()));
  EXPECT_EQ(std::adjacent_find(seen.begin(), seen.end()), seen.end());
}

TEST_F(KvClusterTest, FailedShardReturnsUnavailable) {
  // Find a key owned by shard 5 deterministically.
  std::string key;
  for (int i = 0;; ++i) {
    key = "probe" + std::to_string(i);
    if (kv_->OwnerShard(key) == 5) break;
  }
  ASSERT_TRUE(kv_->Put(clock_, 0, key, "v").ok());
  kv_->FailShard(5);
  EXPECT_TRUE(kv_->Get(clock_, 0, key).status().IsUnavailable());
  EXPECT_TRUE(kv_->Put(clock_, 0, key, "v2").IsUnavailable());
  // Restart: shard is empty (in-memory store).
  kv_->RestartShard(5);
  EXPECT_TRUE(kv_->Get(clock_, 0, key).status().IsNotFound());
}

TEST_F(KvClusterTest, FailShardsOnNodeKillsOnlyThatNodesShards) {
  kv_->FailShardsOnNode(2);
  size_t down = 0;
  for (uint32_t s = 0; s < kv_->NumShards(); ++s) {
    if (!kv_->shard(s).up()) {
      ++down;
      EXPECT_EQ(kv_->ShardNode(s), 2u);
    }
  }
  EXPECT_EQ(down, 4u);
}

TEST_F(KvClusterTest, PScanFailsWhenAnyShardDown) {
  kv_->FailShard(0);
  EXPECT_TRUE(kv_->PScan(clock_, 0, "x").status().IsUnavailable());
}

TEST_F(KvClusterTest, OperationsChargeVirtualTime) {
  Nanos before = clock_.now();
  ASSERT_TRUE(kv_->Put(clock_, 0, "timed", "v").ok());
  EXPECT_GT(clock_.now(), before);
}

TEST_F(KvClusterTest, KeysSpreadAcrossShards) {
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(kv_->Put(clock_, 0, "spread" + std::to_string(i), "v").ok());
  }
  size_t nonempty = 0;
  for (uint32_t s = 0; s < kv_->NumShards(); ++s) {
    if (kv_->shard(s).NumKeys() > 0) ++nonempty;
  }
  EXPECT_GE(nonempty, 12u);  // near-uniform over 16 shards
}

}  // namespace
}  // namespace diesel::kv
