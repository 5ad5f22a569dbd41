// KV-tier fault tolerance: node-level shard failure + recovery, and the
// per-op retry policy riding out transient flaps of a KV machine.
#include <gtest/gtest.h>

#include "core/deployment.h"
#include "dlt/dataset_gen.h"
#include "kv/cluster.h"
#include "net/fault_injector.h"

namespace diesel::kv {
namespace {

class KvFailoverTest : public ::testing::Test {
 protected:
  KvFailoverTest() : cluster_(6), fabric_(cluster_) {
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

TEST_F(KvFailoverTest, RestartShardsOnNodeBringsShardsBackEmpty) {
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(kv_->Put(clock_, 0, "k" + std::to_string(i), "v").ok());
  }
  size_t before = kv_->TotalKeys();
  ASSERT_EQ(before, 100u);

  kv_->FailShardsOnNode(3);
  size_t down = 0;
  for (uint32_t s = 0; s < kv_->NumShards(); ++s) {
    if (!kv_->shard(s).up()) ++down;
  }
  ASSERT_EQ(down, 4u);

  kv_->RestartShardsOnNode(3);
  for (uint32_t s = 0; s < kv_->NumShards(); ++s) {
    EXPECT_TRUE(kv_->shard(s).up());
  }
  // Restarted shards come back empty: only the other 12 shards kept keys.
  EXPECT_LT(kv_->TotalKeys(), before);
  // All ops work again (NotFound for lost keys is a semantic answer).
  for (int i = 0; i < 100; ++i) {
    auto v = kv_->Get(clock_, 0, "k" + std::to_string(i));
    EXPECT_TRUE(v.ok() || v.status().IsNotFound());
  }
}

TEST_F(KvFailoverTest, RetryRidesOutKvNodeFlap) {
  ASSERT_TRUE(kv_->Put(clock_, 0, "stable", "v").ok());

  // Flap KV node 2 for 2ms; the default retry budget is far larger.
  net::FaultPlan plan;
  plan.node_flaps.push_back(
      {.node = 2, .down_at = clock_.now(), .up_at = clock_.now() + Millis(2)});
  plan.fault_detect_timeout = Micros(200);
  net::FaultInjector inj(plan);
  fabric_.set_fault_injector(&inj);

  // Every op eventually lands even though early attempts are rejected.
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(kv_->Put(clock_, 0, "flap" + std::to_string(i), "v").ok());
  }
  for (int i = 0; i < 50; ++i) {
    auto v = kv_->Get(clock_, 0, "flap" + std::to_string(i));
    ASSERT_TRUE(v.ok()) << v.status().ToString();
  }
  EXPECT_GT(inj.stats().down_node_rejections, 0u);
  fabric_.set_fault_injector(nullptr);
}

TEST_F(KvFailoverTest, RetryRidesOutRpcDrops) {
  net::FaultPlan plan;
  plan.seed = 7;
  plan.rpc_drop_prob = 0.2;  // every 5th RPC lost, on average
  plan.fault_detect_timeout = Micros(100);
  net::FaultInjector inj(plan);
  fabric_.set_fault_injector(&inj);

  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(kv_->Put(clock_, 0, "drop" + std::to_string(i),
                         "value" + std::to_string(i)).ok());
  }
  for (int i = 0; i < 100; ++i) {
    auto v = kv_->Get(clock_, 0, "drop" + std::to_string(i));
    ASSERT_TRUE(v.ok()) << v.status().ToString();
    EXPECT_EQ(*v, "value" + std::to_string(i));
  }
  EXPECT_GT(inj.stats().rpc_drops, 0u);
  fabric_.set_fault_injector(nullptr);
}

TEST_F(KvFailoverTest, BatchPutSurvivesDropsWithFullPayload) {
  net::FaultPlan plan;
  plan.seed = 11;
  plan.rpc_drop_prob = 0.3;
  plan.fault_detect_timeout = Micros(100);
  net::FaultInjector inj(plan);
  fabric_.set_fault_injector(&inj);

  WriteBatch batch;
  for (int i = 0; i < 200; ++i) {
    batch.Put("batch" + std::to_string(i), "v" + std::to_string(i));
  }
  ASSERT_TRUE(kv_->BatchPut(clock_, 0, batch).ok());
  fabric_.set_fault_injector(nullptr);
  // A dropped-then-retried shard RPC must re-send the shard's whole group.
  EXPECT_EQ(kv_->TotalKeys(), 200u);
  EXPECT_EQ(kv_->Get(clock_, 0, "batch150").value(), "v150");
}

TEST_F(KvFailoverTest, BatchPutRidesOutShardOutageWithExactValues) {
  // The machine hosting shards 4-7 is down for the first attempt and back
  // well within the retry budget; every entry must land with its value.
  net::FaultPlan plan;
  plan.node_flaps.push_back(
      {.node = 3, .down_at = clock_.now(), .up_at = clock_.now() + Millis(1)});
  plan.fault_detect_timeout = Micros(200);
  net::FaultInjector inj(plan);
  fabric_.set_fault_injector(&inj);

  std::vector<std::pair<std::string, std::string>> expected;
  for (int i = 0; i < 300; ++i) {
    char fill = static_cast<char>('a' + i % 26);
    expected.emplace_back("outage" + std::to_string(i),
                          std::string(1 + i % 37, fill));
  }
  WriteBatch batch;
  for (const auto& [k, v] : expected) batch.Put(k, v);
  ASSERT_TRUE(kv_->BatchPut(clock_, 0, batch).ok());
  fabric_.set_fault_injector(nullptr);
  EXPECT_GT(inj.stats().down_node_rejections, 0u);
  EXPECT_EQ(kv_->TotalKeys(), expected.size());
  for (const auto& [k, v] : expected) {
    auto got = kv_->Get(clock_, 0, k);
    ASSERT_TRUE(got.ok()) << k << ": " << got.status().ToString();
    EXPECT_EQ(*got, v) << k;
  }
}

TEST_F(KvFailoverTest, PermanentShardFailureStillSurfacesUnavailable) {
  std::string key;
  for (int i = 0;; ++i) {
    key = "probe" + std::to_string(i);
    if (kv_->OwnerShard(key) == 5) break;
  }
  kv_->FailShard(5);
  Nanos before = clock_.now();
  EXPECT_TRUE(kv_->Get(clock_, 0, key).status().IsUnavailable());
  // The retry policy charged backoff time before giving up.
  EXPECT_GT(clock_.now(), before);
}

// Full-stack recovery: lose a KV node's shards mid-lifecycle, restart them
// empty, redrive the server's metadata recovery from chunk headers, and
// verify clients read everything as before.
TEST(KvNodeRecoveryTest, ServerRecoversMetadataAfterKvNodeLoss) {
  core::DeploymentOptions dopts;
  dopts.num_client_nodes = 2;
  core::Deployment dep(dopts);

  dlt::DatasetSpec spec;
  spec.name = "kvloss";
  spec.num_classes = 2;
  spec.files_per_class = 30;
  spec.mean_file_bytes = 1024;

  auto writer = dep.MakeClient(0, 0, spec.name, 16 * 1024);
  ASSERT_TRUE(dlt::ForEachFile(spec, [&](const dlt::GeneratedFile& f) {
                return writer->Put(f.path, f.content);
              }).ok());
  ASSERT_TRUE(writer->Flush().ok());

  auto reader = dep.MakeClient(1, 0, spec.name);
  auto pre = reader->Get(dlt::FilePath(spec, 0));
  ASSERT_TRUE(pre.ok());

  // Machine crash on the first KV node: its shards lose everything.
  sim::NodeId victim = dep.kv_node(0);
  dep.kv().FailShardsOnNode(victim);
  dep.kv().RestartShardsOnNode(victim);

  // Some keys are gone until the server redrives recovery from the chunks.
  sim::VirtualClock sclock;
  auto stats = dep.server(0).RecoverMetadata(sclock, spec.name, 0);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_GT(stats->chunks_scanned, 0u);

  for (size_t i = 0; i < spec.total_files(); ++i) {
    auto content = reader->Get(dlt::FilePath(spec, i));
    ASSERT_TRUE(content.ok()) << content.status().ToString();
    ASSERT_TRUE(dlt::VerifyContent(spec, i, content.value())) << i;
  }
}

}  // namespace
}  // namespace diesel::kv
