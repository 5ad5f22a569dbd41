// Multi-tenant chaos: three tenants share one dataset through the cache
// fabric while a seeded fault schedule drops RPCs and flaps a provider
// node. Contract: every read on every tenant returns correct bytes (faults
// cost time, never correctness), the dedup invariant holds (aggregate
// backend loads stay ~1x the dataset, bounded by retried fetches), and the
// whole run is bit-for-bit reproducible for the same seed.
// DIESEL_CHAOS_SEED=<n> sweeps the schedule (nightly runs 32 seeds across
// plain/asan/tsan builds); unset, the pinned default keeps local runs
// reproducible.
#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <vector>

#include "cache/task_cache.h"
#include "common/rng.h"
#include "core/deployment.h"
#include "dlt/dataset_gen.h"
#include "net/fault_injector.h"
#include "sim/clock.h"
#include "tenant/fabric.h"

namespace diesel::tenant {
namespace {

constexpr size_t kTenants = 3;

uint64_t ChaosSeed(uint64_t fallback) {
  const char* env = std::getenv("DIESEL_CHAOS_SEED");
  return env != nullptr ? std::strtoull(env, nullptr, 10) : fallback;
}

dlt::DatasetSpec MakeSpec() {
  dlt::DatasetSpec spec;
  spec.name = "tchaos";
  spec.num_classes = 3;
  spec.files_per_class = 30;
  spec.mean_file_bytes = 2048;
  return spec;
}

struct RunOutput {
  uint64_t backend_loads = 0;  // aggregate across tenants
  uint64_t adopted = 0;
  uint64_t reads_ok = 0;
  uint64_t reads_total = 0;
  uint64_t dataset_chunks = 0;
  std::vector<Nanos> tenant_end;
  std::vector<uint64_t> tenant_adopted;
};

RunOutput RunWorkload(uint64_t seed) {
  RunOutput out;
  dlt::DatasetSpec spec = MakeSpec();
  core::DeploymentOptions dopts;
  dopts.num_client_nodes = kTenants;
  core::Deployment dep(dopts);
  auto writer = dep.MakeClient(0, 0, spec.name, 16 * 1024);
  EXPECT_TRUE(dlt::ForEachFile(spec, [&](const dlt::GeneratedFile& f) {
                return writer->Put(f.path, f.content);
              }).ok());
  EXPECT_TRUE(writer->Flush().ok());
  dep.ResetDevices();

  net::FaultPlan plan;
  plan.seed = seed;
  plan.rpc_drop_prob = 0.01;
  plan.fault_detect_timeout = Micros(200);
  // Flap the first tenant's node mid-run: its published chunks' home goes
  // down while other tenants are still adopting from it.
  plan.node_flaps.push_back({.node = 0, .down_at = Millis(1),
                             .up_at = Millis(4)});
  net::FaultInjector inj(plan);
  dep.fabric().set_fault_injector(&inj);

  CacheFabric shared(dep.fabric(), {});
  struct Tenant {
    std::unique_ptr<core::DieselClient> client;
    cache::TaskRegistry registry;
    std::unique_ptr<cache::TaskCache> cache;
    TenantBinding* binding = nullptr;
    std::vector<uint32_t> order;
    size_t cursor = 0;
    sim::VirtualClock clock;
  };
  std::vector<std::unique_ptr<Tenant>> tenants;
  for (size_t j = 0; j < kTenants; ++j) {
    auto t = std::make_unique<Tenant>();
    t->client = dep.MakeClient(j, 1, spec.name);
    t->registry.Register(t->client->endpoint());
    EXPECT_TRUE(t->client->FetchSnapshot().ok());
    t->binding =
        shared.RegisterTenant(spec.name, {.name = "t" + std::to_string(j)});
    cache::TaskCacheOptions copts;
    copts.policy = cache::CachePolicy::kOneshot;
    copts.retry.max_attempts = 10;
    copts.retry.initial_backoff = Micros(100);
    copts.breaker.cooldown = Millis(1);
    t->cache = std::make_unique<cache::TaskCache>(
        dep.fabric(), dep.server(0), *t->client->snapshot(), t->registry,
        copts);
    t->cache->AttachSharedTier(t->binding);
    t->order.resize(t->client->snapshot()->num_files());
    for (uint32_t i = 0; i < t->order.size(); ++i) t->order[i] = i;
    Rng rng(seed + j);
    rng.Shuffle(t->order);
    tenants.push_back(std::move(t));
  }

  // Closed-loop interleave by global virtual time.
  sim::DriveEarliestFirst(
      tenants.size(), [&](size_t j) { return tenants[j]->clock.now(); },
      [&](size_t j) {
        Tenant& t = *tenants[j];
        if (t.cursor == t.order.size()) return false;
        size_t index = t.order[t.cursor++];
        const core::FileMeta* fm =
            t.client->snapshot()->Lookup(dlt::FilePath(spec, index));
        if (fm == nullptr) {
          ADD_FAILURE() << "missing metadata for file " << index;
          return true;
        }
        auto r = t.cache->GetFile(t.clock, t.client->endpoint(), *fm);
        ++out.reads_total;
        if (r.ok() && dlt::VerifyContent(spec, index, r->view())) {
          ++out.reads_ok;
        }
        return true;
      });

  out.dataset_chunks = tenants[0]->client->snapshot()->chunks().size();
  for (auto& t : tenants) {
    cache::TaskCacheStats cs = t->cache->stats();
    out.backend_loads += cs.chunk_loads;
    out.adopted += cs.adopted_chunks;
    out.tenant_adopted.push_back(cs.adopted_chunks);
    out.tenant_end.push_back(t->clock.now());
    t->cache->Teardown(t->clock.now());
    shared.DeregisterTenant(t->binding);
  }
  dep.fabric().set_fault_injector(nullptr);
  return out;
}

TEST(TenantChaosTest, FaultsCostTimeNeverCorrectnessOrDedup) {
  uint64_t seed = ChaosSeed(7);
  RunOutput out = RunWorkload(seed);
  // Every tenant read every file correctly despite drops and the flap.
  EXPECT_EQ(out.reads_ok, out.reads_total) << "seed " << seed;
  EXPECT_EQ(out.reads_total, kTenants * MakeSpec().total_files());
  // Dedup held: with one shared dataset the aggregate backend load stays
  // near 1x the dataset (degraded reads during the flap may re-fetch a few
  // chunks), strictly below the Nx that disjoint caches would pay.
  EXPECT_GT(out.adopted, 0u) << "seed " << seed;
  EXPECT_GE(out.backend_loads, out.dataset_chunks) << "seed " << seed;
  EXPECT_LT(out.backend_loads, kTenants * out.dataset_chunks)
      << "seed " << seed << ": backend loads " << out.backend_loads
      << " over " << out.dataset_chunks << " chunks";
}

TEST(TenantChaosTest, SameSeedReproducesBitForBit) {
  uint64_t seed = ChaosSeed(7);
  RunOutput a = RunWorkload(seed);
  RunOutput b = RunWorkload(seed);
  EXPECT_EQ(a.backend_loads, b.backend_loads);
  EXPECT_EQ(a.adopted, b.adopted);
  EXPECT_EQ(a.reads_ok, b.reads_ok);
  EXPECT_EQ(a.tenant_end, b.tenant_end);
  EXPECT_EQ(a.tenant_adopted, b.tenant_adopted);
}

}  // namespace
}  // namespace diesel::tenant
