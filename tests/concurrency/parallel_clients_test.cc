// Real-thread concurrency tests: the library's shared components (devices,
// KV shards, object store, task cache) are exercised from many OS threads
// simultaneously; contents must stay bit-exact and counters coherent.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "cache/registry.h"
#include "cache/task_cache.h"
#include "core/deployment.h"
#include "dlt/dataset_gen.h"

namespace diesel {
namespace {

class ParallelClientsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    core::DeploymentOptions opts;
    opts.num_client_nodes = 4;
    deployment_ = std::make_unique<core::Deployment>(opts);
    spec_.name = "par";
    spec_.num_classes = 4;
    spec_.files_per_class = 50;
    spec_.mean_file_bytes = 2048;

    auto writer = deployment_->MakeClient(0, 0, spec_.name, 16 * 1024);
    ASSERT_TRUE(dlt::ForEachFile(spec_, [&](const dlt::GeneratedFile& f) {
                  return writer->Put(f.path, f.content);
                }).ok());
    ASSERT_TRUE(writer->Flush().ok());
  }

  std::unique_ptr<core::Deployment> deployment_;
  dlt::DatasetSpec spec_;
};

TEST_F(ParallelClientsTest, ConcurrentServerReadsAreExact) {
  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 200;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      auto client = deployment_->MakeClient(t % 4,
                                            static_cast<uint32_t>(10 + t),
                                            spec_.name);
      Rng rng(100 + t);
      for (int i = 0; i < kOpsPerThread; ++i) {
        size_t f = rng.Uniform(spec_.total_files());
        auto content = client->Get(dlt::FilePath(spec_, f));
        if (!content.ok() || !dlt::VerifyContent(spec_, f, content.value())) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST_F(ParallelClientsTest, ConcurrentCachedReadsAreExact) {
  constexpr int kThreads = 8;
  std::vector<std::unique_ptr<core::DieselClient>> clients;
  cache::TaskRegistry registry;
  for (int t = 0; t < kThreads; ++t) {
    clients.push_back(deployment_->MakeClient(
        t % 4, static_cast<uint32_t>(20 + t), spec_.name));
    registry.Register(clients.back()->endpoint());
  }
  ASSERT_TRUE(clients[0]->FetchSnapshot().ok());
  cache::TaskCache cache(deployment_->fabric(), deployment_->server(0),
                         *clients[0]->snapshot(), registry, {});
  const core::MetadataSnapshot& snap = *clients[0]->snapshot();

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      sim::VirtualClock clock;
      Rng rng(200 + t);
      for (int i = 0; i < 300; ++i) {
        size_t f = rng.Uniform(spec_.total_files());
        const core::FileMeta* fm = snap.Lookup(dlt::FilePath(spec_, f));
        if (fm == nullptr) {
          failures.fetch_add(1);
          continue;
        }
        auto content = cache.GetFile(clock, clients[t]->endpoint(), *fm);
        if (!content.ok() || !dlt::VerifyContent(spec_, f, content.value())) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  // Every chunk loaded at most once despite racy misses is NOT guaranteed
  // (two threads may race a miss), but loads must not exceed 2x chunks and
  // the cache must end fully resident.
  EXPECT_DOUBLE_EQ(cache.HitRatio(), 1.0);
  EXPECT_LE(cache.stats().chunk_loads, 2 * snap.chunks().size());
}

TEST_F(ParallelClientsTest, ConcurrentCapacityBoundedCacheStaysSafe) {
  constexpr int kThreads = 6;
  std::vector<std::unique_ptr<core::DieselClient>> clients;
  cache::TaskRegistry registry;
  for (int t = 0; t < kThreads; ++t) {
    clients.push_back(deployment_->MakeClient(
        t % 4, static_cast<uint32_t>(40 + t), spec_.name));
    registry.Register(clients.back()->endpoint());
  }
  ASSERT_TRUE(clients[0]->FetchSnapshot().ok());
  const core::MetadataSnapshot& snap = *clients[0]->snapshot();
  // Tiny partitions force constant eviction under concurrency.
  cache::TaskCacheOptions copts;
  copts.per_node_capacity_bytes = 48 * 1024;
  cache::TaskCache cache(deployment_->fabric(), deployment_->server(0), snap,
                         registry, copts);
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      sim::VirtualClock clock;
      Rng rng(300 + t);
      for (int i = 0; i < 200; ++i) {
        size_t f = rng.Uniform(spec_.total_files());
        const core::FileMeta* fm = snap.Lookup(dlt::FilePath(spec_, f));
        auto content = cache.GetFile(clock, clients[t]->endpoint(), *fm);
        if (!content.ok() || !dlt::VerifyContent(spec_, f, content.value())) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GT(cache.stats().evictions, 0u);
}

// A node's partition is dropped and reloaded while reader threads keep
// hammering GetFile: every read must stay bit-exact (misses refetch, peer
// failures degrade to server reads) and the cache must end fully resident.
TEST_F(ParallelClientsTest, ConcurrentReadsSurviveDropNodeAndReload) {
  constexpr int kThreads = 8;
  std::vector<std::unique_ptr<core::DieselClient>> clients;
  cache::TaskRegistry registry;
  for (int t = 0; t < kThreads; ++t) {
    clients.push_back(deployment_->MakeClient(
        t % 4, static_cast<uint32_t>(80 + t), spec_.name));
    registry.Register(clients.back()->endpoint());
  }
  ASSERT_TRUE(clients[0]->FetchSnapshot().ok());
  const core::MetadataSnapshot& snap = *clients[0]->snapshot();
  cache::TaskCacheOptions copts;
  copts.policy = cache::CachePolicy::kOneshot;
  cache::TaskCache cache(deployment_->fabric(), deployment_->server(0), snap,
                         registry, copts);
  ASSERT_TRUE(cache.Preload(0).ok());

  std::atomic<int> failures{0};
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      sim::VirtualClock clock;
      Rng rng(400 + t);
      for (int i = 0; i < 300; ++i) {
        size_t f = rng.Uniform(spec_.total_files());
        const core::FileMeta* fm = snap.Lookup(dlt::FilePath(spec_, f));
        auto content = cache.GetFile(clock, clients[t]->endpoint(), *fm);
        if (!content.ok() || !dlt::VerifyContent(spec_, f, content.value())) {
          failures.fetch_add(1);
        }
      }
      stop.store(true);
    });
  }
  // Chaos thread: repeatedly drop one node's partition and reload it while
  // the readers run.
  std::thread chaos([&] {
    int round = 0;
    while (!stop.load()) {
      cache.DropNode(static_cast<sim::NodeId>(round++ % 4));
      ASSERT_TRUE(cache.Preload(0).ok());
    }
  });
  for (auto& t : threads) t.join();
  chaos.join();
  EXPECT_EQ(failures.load(), 0);
  ASSERT_TRUE(cache.Preload(0).ok());
  EXPECT_DOUBLE_EQ(cache.HitRatio(), 1.0);
}

// KV shards on one node fail and recover while client threads keep issuing
// metadata-bearing operations. In-flight ops may surface Unavailable (the
// shard is genuinely down) or NotFound (its keys were lost), but nothing
// may crash, corrupt, or wedge; after recovery every op must succeed.
TEST_F(ParallelClientsTest, ConcurrentKvOpsSurviveShardFailureAndRecovery) {
  kv::KvCluster& kv = deployment_->kv();
  const sim::NodeId victim = deployment_->kv_node(0);
  constexpr int kThreads = 6;
  std::atomic<int> unexpected{0};
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      sim::VirtualClock clock;
      for (int i = 0; i < 300; ++i) {
        std::string key = "ck" + std::to_string(t) + "_" + std::to_string(i);
        Status put = kv.Put(clock, static_cast<sim::NodeId>(t % 4), key, "v");
        if (!put.ok() && !put.IsUnavailable()) unexpected.fetch_add(1);
        auto got = kv.Get(clock, static_cast<sim::NodeId>(t % 4), key);
        if (got.ok()) {
          if (*got != "v") unexpected.fetch_add(1);
        } else if (!got.status().IsUnavailable() &&
                   !got.status().IsNotFound()) {
          unexpected.fetch_add(1);
        }
      }
      stop.store(true);
    });
  }
  std::thread chaos([&] {
    while (!stop.load()) {
      kv.FailShardsOnNode(victim);
      kv.RestartShardsOnNode(victim);
    }
  });
  for (auto& t : threads) t.join();
  chaos.join();
  EXPECT_EQ(unexpected.load(), 0);
  // Fully recovered: every shard is up and all ops succeed again.
  for (uint32_t s = 0; s < kv.NumShards(); ++s) EXPECT_TRUE(kv.shard(s).up());
  sim::VirtualClock clock;
  for (int i = 0; i < 50; ++i) {
    std::string key = "post" + std::to_string(i);
    ASSERT_TRUE(kv.Put(clock, 0, key, "w").ok());
    EXPECT_EQ(kv.Get(clock, 0, key).value(), "w");
  }
}

TEST_F(ParallelClientsTest, ConcurrentWritersToDistinctDatasets) {
  constexpr int kThreads = 6;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::string ds = "writer" + std::to_string(t);
      auto client = deployment_->MakeClient(t % 4, 60, ds);
      for (int i = 0; i < 100; ++i) {
        std::string payload = ds + ":" + std::to_string(i);
        if (!client->Put("/" + ds + "/f" + std::to_string(i),
                         AsBytesView(payload)).ok()) {
          failures.fetch_add(1);
        }
      }
      if (!client->Flush().ok()) failures.fetch_add(1);
    });
  }
  for (auto& th : threads) th.join();
  ASSERT_EQ(failures.load(), 0);
  // Read each dataset back, cross-checking isolation.
  for (int t = 0; t < kThreads; ++t) {
    std::string ds = "writer" + std::to_string(t);
    auto reader = deployment_->MakeClient(0, static_cast<uint32_t>(70 + t), ds);
    auto content = reader->Get("/" + ds + "/f42");
    ASSERT_TRUE(content.ok()) << ds;
    EXPECT_EQ(ToString(content.value()), ds + ":42");
  }
}

}  // namespace
}  // namespace diesel
