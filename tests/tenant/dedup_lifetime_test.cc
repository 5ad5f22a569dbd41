// Cross-task chunk dedup lifetime: zero-copy slices handed to task A out of
// chunks that task B loaded (and the shared fabric deduplicated) must stay
// byte-stable after B — the last "owner" of the bytes — tears down,
// crashes, or its home node dies. Run under ASan/TSan this is the
// use-after-free proof for the cross-task shared-buffer design; the
// lifetime scenarios sweep seeds 1..8 so the adopted subsets vary. The
// background fill routes (prefetch and preload) adopt as well.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "cache/task_cache.h"
#include "core/deployment.h"
#include "dlt/dataset_gen.h"
#include "tenant/fabric.h"

namespace diesel::tenant {
namespace {

constexpr uint64_t kSeedLo = 1;
constexpr uint64_t kSeedHi = 8;

class DedupLifetimeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    core::DeploymentOptions dopts;
    dopts.num_client_nodes = 4;
    deployment_ = std::make_unique<core::Deployment>(dopts);
    spec_.name = "dedup";
    spec_.num_classes = 2;
    spec_.files_per_class = 40;
    spec_.mean_file_bytes = 2048;
    auto writer = deployment_->MakeClient(0, 0, spec_.name, 16 * 1024);
    ASSERT_TRUE(dlt::ForEachFile(spec_, [&](const dlt::GeneratedFile& f) {
                  return writer->Put(f.path, f.content);
                }).ok());
    ASSERT_TRUE(writer->Flush().ok());
  }

  /// One task: a client on `node`, its own registry + cache, attached to
  /// `fabric` under `tenant_name`.
  struct Task {
    std::unique_ptr<core::DieselClient> client;
    cache::TaskRegistry registry;
    std::unique_ptr<cache::TaskCache> cache;
    TenantBinding* binding = nullptr;
    sim::VirtualClock clock;
  };

  std::unique_ptr<Task> MakeTask(CacheFabric& fabric, size_t node,
                                 const std::string& tenant_name) {
    auto t = std::make_unique<Task>();
    t->client = deployment_->MakeClient(node, 1, spec_.name);
    t->registry.Register(t->client->endpoint());
    EXPECT_TRUE(t->client->FetchSnapshot().ok());
    t->binding = fabric.RegisterTenant(spec_.name, {.name = tenant_name});
    t->cache = std::make_unique<cache::TaskCache>(
        deployment_->fabric(), deployment_->server(0), *t->client->snapshot(),
        t->registry, cache::TaskCacheOptions{});
    t->cache->AttachSharedTier(t->binding);
    return t;
  }

  const core::FileMeta& File(const Task& t, size_t index) {
    const core::FileMeta* m =
        t.client->snapshot()->Lookup(dlt::FilePath(spec_, index));
    EXPECT_NE(m, nullptr);
    return *m;
  }

  /// Seed-dependent file subset (every seed hits a different mix).
  std::vector<size_t> Subset(uint64_t seed) {
    std::vector<size_t> out;
    for (size_t i = 0; i < spec_.total_files(); ++i) {
      if ((i * 2654435761u + seed) % 3 != 0) out.push_back(i);
    }
    return out;
  }

  std::unique_ptr<core::Deployment> deployment_;
  dlt::DatasetSpec spec_;
};

// With task A's partition resident, task B's prefetch fill and oneshot
// preload take A's bytes from the shared tier instead of loading them from
// the backend.
TEST_F(DedupLifetimeTest, PrefetchAndPreloadAdoptInsteadOfLoading) {
  CacheFabric fabric(deployment_->fabric(), {});
  auto a = MakeTask(fabric, 0, "a");
  auto b = MakeTask(fabric, 1, "b");
  const core::MetadataSnapshot& snap = *b->client->snapshot();
  const size_t chunks = snap.chunks().size();
  ASSERT_GT(chunks, 1u);
  ASSERT_TRUE(a->cache->Preload(0).ok());
  ASSERT_EQ(a->cache->stats().chunk_loads, chunks);

  sim::VirtualClock clock;
  const uint64_t chunk0_bytes =
      deployment_->store()
          .Get(clock, 0, core::ChunkObjectKey(spec_.name, snap.chunks().at(0)))
          .value()
          ->size();
  const Nanos issue = 1'000'000;
  sim::VirtualClock stream(issue);
  auto fill = b->cache->PrefetchChunk(stream, 0);
  ASSERT_TRUE(fill.ok()) << fill.status().ToString();
  EXPECT_TRUE(fill->inserted);
  EXPECT_FALSE(fill->already_resident);
  EXPECT_EQ(fill->bytes, chunk0_bytes);
  EXPECT_GT(stream.now(), issue);  // the peer transfer is charged
  EXPECT_EQ(fill->ready_at, stream.now());
  EXPECT_TRUE(b->cache->ChunkResident(0));
  cache::TaskCacheStats bs = b->cache->stats();
  EXPECT_EQ(bs.adopted_chunks, 1u);
  EXPECT_EQ(bs.adopted_bytes, chunk0_bytes);
  EXPECT_EQ(bs.chunk_loads, 0u);

  ASSERT_TRUE(b->cache->Preload(0).ok());
  bs = b->cache->stats();
  EXPECT_EQ(bs.adopted_chunks, chunks);
  EXPECT_EQ(bs.chunk_loads, 0u);
  EXPECT_EQ(b->cache->HitRatio(), 1.0);
}

TEST_F(DedupLifetimeTest, SlicesSurviveProviderTeardown) {
  for (uint64_t seed = kSeedLo; seed <= kSeedHi; ++seed) {
    CacheFabric fabric(deployment_->fabric(), {});
    auto provider = MakeTask(fabric, 0, "provider");
    auto adopter = MakeTask(fabric, 1, "adopter");

    // Provider loads everything (publishing each chunk into the fabric).
    for (size_t i = 0; i < spec_.total_files(); ++i) {
      ASSERT_TRUE(provider->cache
                      ->GetFile(provider->clock, provider->client->endpoint(),
                                File(*provider, i))
                      .ok());
    }
    // Adopter takes zero-copy slices via the shared tier (no backend reads).
    std::vector<size_t> picks = Subset(seed);
    std::vector<core::FileSlice> held;
    for (size_t i : picks) {
      auto s = adopter->cache->GetFileSlice(
          adopter->clock, adopter->client->endpoint(), File(*adopter, i));
      ASSERT_TRUE(s.ok()) << s.status().ToString();
      held.push_back(std::move(s.value()));
    }
    EXPECT_EQ(adopter->cache->stats().chunk_loads, 0u);
    EXPECT_GT(adopter->cache->stats().adopted_chunks, 0u);

    // Provider ends orderly (demote) and is destroyed entirely; the fabric
    // then loses its copies too. Held slices must not notice.
    provider->cache->Teardown(provider->clock.now());
    fabric.DeregisterTenant(provider->binding);
    provider.reset();
    for (size_t k = 0; k < held.size(); ++k) {
      EXPECT_TRUE(dlt::VerifyContent(spec_, picks[k], held[k].ToBytes()))
          << "seed " << seed << " file " << picks[k];
    }
  }
}

TEST_F(DedupLifetimeTest, SlicesSurviveProviderCrashAndFabricDestruction) {
  for (uint64_t seed = kSeedLo; seed <= kSeedHi; ++seed) {
    std::vector<core::FileSlice> held;
    std::vector<size_t> picks = Subset(seed);
    {
      CacheFabric fabric(deployment_->fabric(), {});
      auto provider = MakeTask(fabric, 0, "crasher");
      auto adopter = MakeTask(fabric, 1, "survivor");
      for (size_t i = 0; i < spec_.total_files(); ++i) {
        ASSERT_TRUE(provider->cache
                        ->GetFile(provider->clock,
                                  provider->client->endpoint(),
                                  File(*provider, i))
                        .ok());
      }
      for (size_t i : picks) {
        auto s = adopter->cache->GetFileSlice(
            adopter->clock, adopter->client->endpoint(), File(*adopter, i));
        ASSERT_TRUE(s.ok());
        held.push_back(std::move(s.value()));
      }
      // Crash semantics: DropAll, no demote — then the adopter tears down
      // and the whole fabric is destroyed while the slices live on.
      provider->cache->DropAll();
      provider.reset();
      adopter->cache->Teardown(adopter->clock.now());
      adopter.reset();
    }
    for (size_t k = 0; k < held.size(); ++k) {
      EXPECT_TRUE(dlt::VerifyContent(spec_, picks[k], held[k].ToBytes()))
          << "seed " << seed << " file " << picks[k];
    }
  }
}

TEST_F(DedupLifetimeTest, AdoptionFromDeadHomeNodeServesLocally) {
  for (uint64_t seed = kSeedLo; seed <= kSeedHi; ++seed) {
    CacheFabric fabric(deployment_->fabric(), {});
    auto provider = MakeTask(fabric, 2, "doomed" + std::to_string(seed));
    for (size_t i = 0; i < spec_.total_files(); ++i) {
      ASSERT_TRUE(provider->cache
                      ->GetFile(provider->clock, provider->client->endpoint(),
                                File(*provider, i))
                      .ok());
    }
    provider->cache->Teardown(provider->clock.now());
    fabric.DeregisterTenant(provider->binding);
    provider.reset();

    // The demoted chunks' home node dies; adoption must fall back to a
    // local serve (re-homing the entries) instead of failing.
    deployment_->cluster().FailNode(deployment_->client_node(2));
    auto adopter = MakeTask(fabric, 3, "adopter" + std::to_string(seed));
    std::vector<size_t> picks = Subset(seed);
    for (size_t i : picks) {
      auto r = adopter->cache->GetFile(
          adopter->clock, adopter->client->endpoint(), File(*adopter, i));
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      EXPECT_TRUE(dlt::VerifyContent(spec_, i, r.value()));
    }
    EXPECT_EQ(adopter->cache->stats().chunk_loads, 0u);
    deployment_->cluster().RecoverNode(deployment_->client_node(2));
  }
}

}  // namespace
}  // namespace diesel::tenant
