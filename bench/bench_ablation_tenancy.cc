// Ablation: multi-tenant cache fabric. N training jobs run over the same
// simulated cluster with the cluster-wide shared cache tier attached, and
// the arms isolate what tenancy buys:
//
//   shared    N jobs over ONE dataset — the fabric dedups residency, so the
//             aggregate backend load is ~1x the dataset, not Nx.
//   disjoint  N jobs over N private datasets — the no-sharing control; its
//             aggregate backend load is the Nx the shared arm avoids.
//   warm      a job tears down through the demote path and a successor
//             adopts everything — zero backend reads on restart.
//   fairness  a small warm-started tenant reads under a large cold tenant's
//             backend pressure (faults on); its p99 read latency must stay
//             within tolerance of the same job running solo, because its
//             reads ride the shared tier instead of the contended backend.
//
// Every figure is virtual-time deterministic. Besides the aggregate report,
// each shared-arm job writes its own <bench>.job<k>.report.json (info-only)
// so fairness tooling can inspect per-tenant artifacts from one run.
#include <algorithm>
#include <memory>

#include "bench/bench_util.h"
#include "cache/registry.h"
#include "common/rng.h"
#include "cache/task_cache.h"
#include "core/deployment.h"
#include "dlt/dataset_gen.h"
#include "net/fault_injector.h"
#include "tenant/fabric.h"

namespace diesel {
namespace {

constexpr size_t kJobs = 3;
constexpr size_t kClientsPerJob = 2;
constexpr uint64_t kSeed = 42;

dlt::DatasetSpec SmallSpec(const std::string& name) {
  dlt::DatasetSpec spec;
  spec.name = name;
  spec.num_classes = 4;
  spec.files_per_class = 40;
  spec.mean_file_bytes = 4 * 1024;
  spec.fixed_size = true;
  return spec;
}

dlt::DatasetSpec LargeSpec(const std::string& name) {
  dlt::DatasetSpec spec = SmallSpec(name);
  spec.num_classes = 10;
  spec.files_per_class = 80;
  return spec;
}

void Ingest(core::Deployment& dep, const dlt::DatasetSpec& spec) {
  // Small chunks so even the bench-scale dataset spans many shared-tier
  // entries (the dedup/fairness arms are about chunk-grained accounting).
  auto writer = dep.MakeClient(0, 99, spec.name, 16 * 1024);
  if (!dlt::ForEachFile(spec, [&](const dlt::GeneratedFile& f) {
        return writer->Put(f.path, f.content);
      }).ok() ||
      !writer->Flush().ok()) {
    std::abort();
  }
}

/// One tenant job: its own clients, registry, task cache and fabric binding,
/// driven closed-loop against the other jobs by virtual clock.
struct Job {
  std::string name;
  tenant::TenantBinding* binding = nullptr;
  std::vector<std::unique_ptr<core::DieselClient>> clients;
  std::unique_ptr<cache::TaskRegistry> registry;
  std::unique_ptr<cache::TaskCache> cache;
  const core::MetadataSnapshot* snap = nullptr;
  std::vector<uint32_t> order;
  size_t cursor = 0;
  std::vector<sim::VirtualClock> clocks;
  std::vector<double> lat_ms;
  bool ok = true;

  bool done() const { return cursor >= order.size(); }
  double makespan_s() const { return ToSeconds(sim::LatestStream(clocks)); }
};

std::unique_ptr<Job> MakeJob(core::Deployment& dep, tenant::CacheFabric& shared,
                             const dlt::DatasetSpec& spec, size_t node,
                             const std::string& name, uint64_t shuffle_seed,
                             tenant::TenantOptions topts = {}) {
  auto job = std::make_unique<Job>();
  job->name = name;
  topts.name = name;
  job->binding = shared.RegisterTenant(spec.name, std::move(topts));
  job->registry = std::make_unique<cache::TaskRegistry>();
  for (size_t c = 0; c < kClientsPerJob; ++c) {
    job->clients.push_back(
        dep.MakeClient(node, static_cast<uint32_t>(10 + c), spec.name));
    job->registry->Register(job->clients.back()->endpoint());
  }
  if (!job->clients[0]->FetchSnapshot().ok()) std::abort();
  job->snap = job->clients[0]->snapshot();

  cache::TaskCacheOptions copts;
  copts.policy = cache::CachePolicy::kOneshot;
  copts.retry.max_attempts = 10;
  copts.retry.initial_backoff = Micros(100);
  copts.breaker.cooldown = Millis(1);
  job->cache = std::make_unique<cache::TaskCache>(
      dep.fabric(), dep.server(0), *job->snap, *job->registry, copts);
  job->cache->AttachSharedTier(job->binding);

  job->order.resize(job->snap->num_files());
  for (uint32_t i = 0; i < job->order.size(); ++i) job->order[i] = i;
  Rng rng(shuffle_seed);
  rng.Shuffle(job->order);
  job->clocks.assign(kClientsPerJob, sim::VirtualClock());
  return job;
}

/// Drive every job one epoch, interleaved by global virtual time — the
/// multi-tenant analogue of the closed-loop single-task benches. Worker w is
/// client w % kClientsPerJob of job w / kClientsPerJob.
void DriveJobs(std::vector<std::unique_ptr<Job>>& jobs) {
  sim::DriveEarliestFirst(
      jobs.size() * kClientsPerJob,
      [&](size_t w) {
        return jobs[w / kClientsPerJob]->clocks[w % kClientsPerJob].now();
      },
      [&](size_t w) {
        Job& job = *jobs[w / kClientsPerJob];
        if (job.done()) return false;
        sim::VirtualClock& clock = job.clocks[w % kClientsPerJob];
        const core::FileMeta& fm = job.snap->files()[job.order[job.cursor++]];
        Nanos start = clock.now();
        auto r = job.cache->GetFile(
            clock, job.clients[w % kClientsPerJob]->endpoint(), fm);
        if (!r.ok()) job.ok = false;
        job.lat_ms.push_back(ToSeconds(clock.now() - start) * 1e3);
        return true;
      });
}

double P99Ms(std::vector<double> ms) {
  if (ms.empty()) return 0.0;
  std::sort(ms.begin(), ms.end());
  return ms[static_cast<size_t>(0.99 * static_cast<double>(ms.size() - 1))];
}

struct ArmResult {
  uint64_t backend_loads = 0;
  uint64_t adopted = 0;
  uint64_t demoted = 0;
  double makespan_s = 0;
  bool ok = true;
  std::vector<cache::TaskCacheStats> per_job;
  std::vector<double> per_job_p99_ms;
};

/// shared=true: every job reads the one shared dataset; false: each job its
/// own private copy (the control arm paying Nx backend reads).
ArmResult RunFleet(bool shared_dataset) {
  core::DeploymentOptions dopts;
  dopts.num_client_nodes = kJobs + 1;
  core::Deployment dep(dopts);
  std::vector<dlt::DatasetSpec> specs;
  for (size_t j = 0; j < kJobs; ++j) {
    std::string ds = shared_dataset ? "tshared" : "tpriv" + std::to_string(j);
    if (!shared_dataset || j == 0) {
      specs.push_back(SmallSpec(ds));
      Ingest(dep, specs.back());
    } else {
      specs.push_back(specs[0]);
    }
  }
  dep.ResetDevices();

  tenant::CacheFabric shared(dep.fabric(), {});
  std::vector<std::unique_ptr<Job>> jobs;
  for (size_t j = 0; j < kJobs; ++j) {
    jobs.push_back(MakeJob(dep, shared, specs[j], j,
                           "job" + std::to_string(j), kSeed + j));
  }
  DriveJobs(jobs);

  ArmResult res;
  for (auto& job : jobs) {
    cache::TaskCacheStats cs = job->cache->stats();
    res.backend_loads += cs.chunk_loads;
    res.adopted += cs.adopted_chunks;
    res.ok = res.ok && job->ok;
    res.makespan_s = std::max(res.makespan_s, job->makespan_s());
    res.per_job_p99_ms.push_back(P99Ms(job->lat_ms));
    job->cache->Teardown(job->clocks[0].now());
    res.per_job.push_back(job->cache->stats());
    res.demoted += job->cache->stats().demoted_chunks;
    shared.DeregisterTenant(job->binding);
  }
  return res;
}

/// Warm start: job A cold-loads and tears down through the demote path;
/// job B then adopts the full residency without touching the backend.
ArmResult RunWarmStart() {
  core::DeploymentOptions dopts;
  dopts.num_client_nodes = 2;
  core::Deployment dep(dopts);
  dlt::DatasetSpec spec = SmallSpec("twarm");
  Ingest(dep, spec);
  dep.ResetDevices();

  tenant::CacheFabric shared(dep.fabric(), {});
  ArmResult res;
  {
    std::vector<std::unique_ptr<Job>> seed;
    seed.push_back(MakeJob(dep, shared, spec, 0, "epochal", kSeed));
    DriveJobs(seed);
    res.ok = seed[0]->ok;
    seed[0]->cache->Teardown(seed[0]->clocks[0].now());
    res.demoted = seed[0]->cache->stats().demoted_chunks;
    shared.DeregisterTenant(seed[0]->binding);
  }
  {
    std::vector<std::unique_ptr<Job>> succ;
    succ.push_back(MakeJob(dep, shared, spec, 1, "restart", kSeed + 1));
    DriveJobs(succ);
    cache::TaskCacheStats cs = succ[0]->cache->stats();
    res.backend_loads = cs.chunk_loads;
    res.adopted = cs.adopted_chunks;
    res.ok = res.ok && succ[0]->ok;
    res.makespan_s = succ[0]->makespan_s();
    succ[0]->cache->Teardown(succ[0]->clocks[0].now());
    shared.DeregisterTenant(succ[0]->binding);
  }
  return res;
}

/// Small-tenant p99 with and without a large cold tenant hammering the
/// backend next to it. The small tenant is warm-started off the shared tier
/// in both arms; injected RPC faults run in both arms too.
double RunFairness(double* solo_p99_ms, double* pressured_p99_ms,
                   uint64_t* small_evicted_by_other, bool* ok) {
  auto run_arm = [&](bool with_pressure) -> std::pair<double, uint64_t> {
    core::DeploymentOptions dopts;
    dopts.num_client_nodes = kJobs + 1;
    core::Deployment dep(dopts);
    dlt::DatasetSpec small = SmallSpec("tsmall");
    dlt::DatasetSpec large = LargeSpec("tlarge");
    Ingest(dep, small);
    if (with_pressure) Ingest(dep, large);
    dep.ResetDevices();

    tenant::CacheFabric shared(dep.fabric(), {});
    // Seed the shared tier with the small dataset (a prior run of the same
    // job demoted its residency), identically in both arms.
    {
      std::vector<std::unique_ptr<Job>> seed;
      seed.push_back(MakeJob(dep, shared, small, 0, "seed", kSeed));
      DriveJobs(seed);
      *ok = *ok && seed[0]->ok;
      seed[0]->cache->Teardown(seed[0]->clocks[0].now());
      shared.DeregisterTenant(seed[0]->binding);
    }
    dep.ResetDevices();

    net::FaultPlan plan;
    plan.seed = kSeed;
    plan.rpc_drop_prob = 0.005;
    plan.fault_detect_timeout = Micros(200);
    net::FaultInjector inj(plan);
    dep.fabric().set_fault_injector(&inj);

    std::vector<std::unique_ptr<Job>> jobs;
    jobs.push_back(MakeJob(dep, shared, small, 0, "small", kSeed + 7,
                           {.weight = 1.0}));
    if (with_pressure) {
      jobs.push_back(MakeJob(dep, shared, large, 1, "large", kSeed + 8,
                             {.weight = 4.0}));
    }
    DriveJobs(jobs);
    for (auto& job : jobs) *ok = *ok && job->ok;
    double p99 = P99Ms(jobs[0]->lat_ms);
    uint64_t evicted_by_other = 0;
    for (const tenant::TenantStats& t : shared.Stats()) {
      if (t.name == "small") evicted_by_other = t.evicted_by_other;
    }
    dep.fabric().set_fault_injector(nullptr);
    return {p99, evicted_by_other};
  };

  auto [solo, solo_ev] = run_arm(false);
  auto [pressured, press_ev] = run_arm(true);
  (void)solo_ev;
  *solo_p99_ms = solo;
  *pressured_p99_ms = pressured;
  *small_evicted_by_other = press_ev;
  return solo > 0 ? pressured / solo : 0.0;
}

int Run() {
  bench::Banner("Ablation: multi-tenant cache fabric (shared tier)");

  ArmResult shared = RunFleet(/*shared_dataset=*/true);
  ArmResult disjoint = RunFleet(/*shared_dataset=*/false);
  ArmResult warm = RunWarmStart();
  double solo_p99 = 0, pressured_p99 = 0;
  uint64_t small_evicted = 0;
  bool fair_ok = true;
  double ratio =
      RunFairness(&solo_p99, &pressured_p99, &small_evicted, &fair_ok);

  bench::Table table({"arm", "backend loads", "adopted", "demoted",
                      "makespan (s)", "ok"});
  auto row = [&](const char* arm, const ArmResult& r) {
    table.AddRow({arm, std::to_string(r.backend_loads),
                  std::to_string(r.adopted), std::to_string(r.demoted),
                  bench::Fmt("%.4f", r.makespan_s), r.ok ? "yes" : "NO"});
  };
  row("shared x3", shared);
  row("disjoint x3", disjoint);
  row("warm restart", warm);
  table.Print();
  std::printf("\nfairness: small-tenant p99 %.3f ms solo vs %.3f ms under "
              "large-tenant pressure (ratio %.3f, evicted_by_other %llu)\n",
              solo_p99, pressured_p99, ratio,
              static_cast<unsigned long long>(small_evicted));
  std::printf("3 jobs sharing one dataset cost %llu backend chunk loads "
              "(disjoint control: %llu — %.2fx); a warm restart re-read "
              "%llu chunks from the backend.\n",
              static_cast<unsigned long long>(shared.backend_loads),
              static_cast<unsigned long long>(disjoint.backend_loads),
              shared.backend_loads
                  ? static_cast<double>(disjoint.backend_loads) /
                        static_cast<double>(shared.backend_loads)
                  : 0.0,
              static_cast<unsigned long long>(warm.backend_loads));

  // Gated: the dedup contract. Shared-arm aggregate loads are exactly one
  // dataset's worth; the disjoint control pays the Nx.
  bench::Metric("backend_loads.shared", "chunks",
                static_cast<double>(shared.backend_loads),
                obs::Direction::kLowerIsBetter, 0.0);
  bench::Metric("backend_load_ratio", "x",
                shared.backend_loads
                    ? static_cast<double>(disjoint.backend_loads) /
                          static_cast<double>(shared.backend_loads)
                    : 0.0,
                obs::Direction::kHigherIsBetter, 0.05);
  bench::Metric("warm.backend_loads", "chunks",
                static_cast<double>(warm.backend_loads),
                obs::Direction::kLowerIsBetter, 0.0);
  bench::Metric("warm.adopted_chunks", "chunks",
                static_cast<double>(warm.adopted),
                obs::Direction::kHigherIsBetter);
  bench::Metric("fairness.small_p99_ratio", "x", ratio,
                obs::Direction::kLowerIsBetter, 0.25);
  bench::Metric("all_reads_ok", "bool",
                (shared.ok && disjoint.ok && warm.ok && fair_ok) ? 1.0 : 0.0,
                obs::Direction::kHigherIsBetter, 0.0);
  bench::Info("shared.adopted_chunks", "chunks",
              static_cast<double>(shared.adopted));
  bench::Info("shared.demoted_chunks", "chunks",
              static_cast<double>(shared.demoted));
  bench::Info("disjoint.backend_loads", "chunks",
              static_cast<double>(disjoint.backend_loads));
  bench::Info("fairness.solo_p99_ms", "ms", solo_p99);
  bench::Info("fairness.pressured_p99_ms", "ms", pressured_p99);
  bench::Info("fairness.small_evicted_by_other", "chunks",
              static_cast<double>(small_evicted));
  bench::AddVirtualTime(static_cast<Nanos>(
      (shared.makespan_s + disjoint.makespan_s + warm.makespan_s) * 1e9));

  // Per-job artifacts (info-only, never gate) for the shared arm.
  int rc = bench::CloseReport();
  for (size_t j = 0; j < shared.per_job.size(); ++j) {
    bench::OpenReport("ablation_tenancy", kSeed, static_cast<uint32_t>(j));
    bench::Param("tenant", "job" + std::to_string(j));
    const cache::TaskCacheStats& cs = shared.per_job[j];
    bench::Info("backend_loads", "chunks", static_cast<double>(cs.chunk_loads));
    bench::Info("adopted_chunks", "chunks",
                static_cast<double>(cs.adopted_chunks));
    bench::Info("demoted_chunks", "chunks",
                static_cast<double>(cs.demoted_chunks));
    bench::Info("p99_ms", "ms", shared.per_job_p99_ms[j]);
    rc |= bench::CloseReport();
  }
  return rc;
}

}  // namespace
}  // namespace diesel

int main() {
  diesel::bench::OpenReport("ablation_tenancy", diesel::kSeed);
  diesel::bench::Param("jobs", static_cast<double>(diesel::kJobs));
  diesel::bench::Param("clients_per_job",
                       static_cast<double>(diesel::kClientsPerJob));
  return diesel::Run();
}
