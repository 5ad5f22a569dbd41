// Performance benchmark: the data-loading side of a DLT training task on the
// simulated DIESEL cluster, under four workloads.
//
//   cached    one task (8 clients on 4 nodes) preloads the dataset at task
//             start (oneshot policy); every epoch is served from the
//             task-grained cache: local and peer hits, batched multi-gets,
//             zero-copy slices.
//   direct    the same task without a task cache: every mini-batch goes to
//             the DIESEL server (KV metadata MGET + chunk range reads), so
//             the cache is bypassed and every read reaches the backend.
//   prefetch  an on-demand cache holding a quarter of each node's partition;
//             the clairvoyant prefetch scheduler and Belady eviction refill
//             it ahead of the training cursor.
//   tenants   three jobs train over one dataset through the multi-tenant
//             cache fabric while RPCs are dropped at random: later jobs
//             adopt the first job's chunks, drops exercise retry paths.
//
// A run generates the dataset from --seed, then repeats the workload (fresh
// deployment, ingest, task start, epochs) until --seconds have passed.
// Simulated-cluster metrics are a pure function of the seed and must agree
// bit for bit across repetitions; host metrics are medians over the
// repetitions after one unmeasured warm-up repetition. Every file read is
// checked against a fingerprint of the generated content.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//
// The last stdout line is one JSON object with the keys correct, attempted,
// failed and metrics. With --trace 0 these are the end-to-end metrics: the
// simulated epoch time, the p50/p99 simulated data wait per iteration and
// the host set-up time. With --trace 1 they are the per-layer metrics: host
// time per file read and inside each layer's calls, plus layer counters.
// Host time per file is per-layer on purpose: on a shared host its
// run-to-run spread (up to a third, from neighbour load) is wider than any
// bound a gate could hold.
#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "cache/registry.h"
#include "cache/task_cache.h"
#include "common/rng.h"
#include "core/deployment.h"
#include "dlt/dataset_gen.h"
#include "dlt/pipeline.h"
#include "net/fault_injector.h"
#include "obs/metrics.h"
#include "prefetch/scheduler.h"
#include "shuffle/shuffle.h"
#include "tenant/fabric.h"

namespace diesel::perfbench {
namespace {

using HostClock = std::chrono::steady_clock;

double SecondsSince(HostClock::time_point t0) {
  return std::chrono::duration<double>(HostClock::now() - t0).count();
}

[[noreturn]] void Die(const std::string& msg) {
  std::fprintf(stderr, "perfbench: %s\n", msg.c_str());
  std::exit(1);
}

constexpr size_t kNodes = 4;
constexpr size_t kClientsPerNode = 2;
constexpr size_t kClientsPerTenant = 2;
constexpr uint64_t kChunkBytes = 256 * 1024;
constexpr size_t kClasses = 64;
constexpr size_t kFiles = 8192;
constexpr uint64_t kMeanFileBytes = 8 * 1024;  // sizes jitter +-25%
constexpr size_t kGroupSize = 4;               // chunks per shuffle group
constexpr size_t kBatch = 16;                  // files per iteration
constexpr size_t kIoWorkers = 4;
constexpr size_t kMinReps = 3;
constexpr Nanos kShuffleCost = Millis(10);
// GPU step per iteration, kept short so the epoch time stays sensitive to
// the data path the benchmark is about.
constexpr sim::ModelCompute kModel = {"perfbench", Micros(250)};

struct Workload {
  const char* name;
  size_t jobs;           // training tasks over the one dataset
  size_t epochs;         // measured epochs per task
  bool task_cache;       // false: mini-batches go straight to the server
  bool preload;          // oneshot policy: dataset loaded at task start
  double capacity_frac;  // per-node cache capacity / partition; 0 = unbounded
  bool prefetch;         // clairvoyant prefetch scheduler + Belady eviction
  bool shared_tier;      // attach the multi-tenant cache fabric
  double rpc_drop_prob;  // injected during the epochs
};

constexpr Workload kWorkloads[] = {
    {"cached", 1, 3, true, true, 0.0, false, false, 0.0},
    {"direct", 1, 2, false, false, 0.0, false, false, 0.0},
    {"prefetch", 1, 3, true, false, 0.25, true, false, 0.0},
    {"tenants", 3, 2, true, false, 0.0, false, true, 0.002},
};

/// Registry counters reported per layer with --trace 1 (name, key prefix).
constexpr std::pair<const char*, const char*> kLayerCounters[] = {
    {"cache_local_hits", "cache.local_hits"},
    {"cache_peer_hits", "cache.peer_hits"},
    {"cache_chunk_loads", "cache.chunk_loads"},
    {"cache_evictions", "cache.evictions"},
    {"cache_crc_verified", "cache.slice.crc_verified"},
    {"prefetch_issued", "prefetch.issued"},
    {"prefetch_hits", "prefetch.hit"},
    {"prefetch_late", "prefetch.late"},
    {"tenant_adopted_chunks", "tenant.adopted_chunks"},
    {"core_file_reads", "core.file.reads"},
    {"core_chunk_reads", "core.chunk.reads"},
    {"kv_ops", "kv.ops"},
    {"net_rpc_calls", "net.rpc.calls"},
    {"net_batch_subrequests", "net.batch.subrequests"},
    {"net_rpc_drops", "net.rpc.drops"},
};

/// Host-time and simulated per-layer metrics with --trace 1 (all seconds).
constexpr const char* kLayerSeconds[] = {
    "host_ingest_s",   "host_snapshot_s", "host_cache_start_s",
    "host_shuffle_s",  "host_read_s",     "host_prefetch_s",
    "host_teardown_s", "sim_preload_s",   "sim_fetch_s",
    "sim_device_busy_s",
};

/// Content fingerprint for the output checks. Deliberately independent of
/// the system's own CRC code, so a broken checksum there cannot hide a
/// corrupted read here.
uint64_t ContentHash(BytesView data) {
  uint64_t h = 0x243F6A8885A308D3ULL ^ data.size();
  size_t i = 0;
  for (; i + 8 <= data.size(); i += 8) {
    uint64_t word = 0;
    std::memcpy(&word, data.data() + i, 8);
    h = std::rotl((h ^ word) * 0x9E3779B97F4A7C15ULL, 29);
  }
  for (; i < data.size(); ++i) h = (h ^ data[i]) * 0x100000001B3ULL;
  h ^= h >> 33;
  h *= 0xFF51AFD7ED558CCDULL;
  return h ^ (h >> 33);
}

/// Everything derived from --seed: the dataset and its fingerprints.
struct Inputs {
  uint64_t seed = 0;
  dlt::DatasetSpec spec;
  std::vector<dlt::GeneratedFile> files;
  std::unordered_map<std::string, uint64_t> hash_by_path;
};

Inputs MakeInputs(uint64_t seed) {
  Inputs in;
  in.seed = seed;
  in.spec.name = "bench";
  in.spec.num_classes = kClasses;
  in.spec.files_per_class = kFiles / kClasses;
  in.spec.mean_file_bytes = kMeanFileBytes;
  in.spec.fixed_size = false;
  in.spec.seed = seed;
  in.files.reserve(in.spec.total_files());
  for (size_t i = 0; i < in.spec.total_files(); ++i) {
    in.files.push_back(dlt::MakeFile(in.spec, i));
    in.hash_by_path[in.files.back().path] = ContentHash(in.files.back().content);
  }
  return in;
}

using LayerValues = std::map<std::string, double>;

/// Host-time span around one call into a layer, summed per layer name into
/// `sink`; a null sink (tracing off) skips the clock reads.
class LayerSpan {
 public:
  LayerSpan(LayerValues* sink, const char* layer) : sink_(sink), layer_(layer) {
    if (sink_ != nullptr) start_ = HostClock::now();
  }
  ~LayerSpan() {
    if (sink_ != nullptr) (*sink_)[layer_] += SecondsSince(start_);
  }
  LayerSpan(const LayerSpan&) = delete;
  LayerSpan& operator=(const LayerSpan&) = delete;

 private:
  LayerValues* sink_;
  const char* layer_;
  HostClock::time_point start_;
};

/// One repetition of a workload.
struct Rep {
  double setup_s = 0;   // host: deployment, ingest, snapshots, task start
  double epochs_s = 0;  // host: the measured epochs
  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool correct = true;
  std::vector<Nanos> epoch_ns;  // simulated epoch durations
  std::vector<double> wait_s;   // simulated per-iteration data waits
  LayerValues layers;           // --trace 1 only
};

/// One training task: its clients, cache stack and shuffle stream.
struct Job {
  explicit Job(uint64_t shuffle_seed) : rng(shuffle_seed) {}

  std::vector<std::unique_ptr<core::DieselClient>> clients;
  cache::TaskRegistry registry;
  const core::MetadataSnapshot* snap = nullptr;
  std::unique_ptr<cache::TaskCache> cache;  // null: direct server reads
  std::unique_ptr<prefetch::PrefetchScheduler> sched;  // uses `cache`
  tenant::TenantBinding* binding = nullptr;
  std::vector<uint64_t> expected_hash;  // by snapshot file index
  Rng rng;
  Nanos start = 0;  // virtual time the next epoch begins
};

std::unique_ptr<Job> StartJob(core::Deployment& dep, const Workload& w,
                              const Inputs& in, size_t j,
                              tenant::CacheFabric* fabric, LayerValues* lt) {
  auto job = std::make_unique<Job>(in.seed * 7919 + j + 1);
  const bool single = w.jobs == 1;
  const size_t num_clients =
      single ? kNodes * kClientsPerNode : kClientsPerTenant;
  for (size_t c = 0; c < num_clients; ++c) {
    // One task spans every node; tenant j runs on nodes j and j+1.
    const size_t node = single ? c % kNodes : (j + c) % kNodes;
    const auto index = static_cast<uint32_t>(single ? c / kNodes : 10 + j);
    job->clients.push_back(dep.MakeClient(node, index, in.spec.name));
    job->registry.Register(job->clients.back()->endpoint());
  }
  {
    LayerSpan span(lt, "host_snapshot_s");
    if (!job->clients[0]->FetchSnapshot().ok()) Die("snapshot fetch failed");
  }
  job->snap = job->clients[0]->snapshot();
  if (!w.task_cache) return job;

  LayerSpan span(lt, "host_cache_start_s");
  cache::TaskCacheOptions copts;
  copts.policy =
      w.preload ? cache::CachePolicy::kOneshot : cache::CachePolicy::kOnDemand;
  if (w.capacity_frac > 0) {
    uint64_t payload = 0;
    for (const core::FileMeta& fm : job->snap->files()) payload += fm.length;
    copts.per_node_capacity_bytes = static_cast<uint64_t>(
        static_cast<double>(payload) / kNodes * w.capacity_frac);
  }
  if (w.rpc_drop_prob > 0) {
    copts.retry.max_attempts = 10;
    copts.retry.initial_backoff = Micros(100);
    copts.breaker.cooldown = Millis(1);
  }
  job->cache = std::make_unique<cache::TaskCache>(
      dep.fabric(), dep.server(0), *job->snap, job->registry, copts);
  job->cache->EstablishConnections();
  if (fabric != nullptr) {
    job->binding = fabric->RegisterTenant(
        in.spec.name, {.name = "job" + std::to_string(j)});
    job->cache->AttachSharedTier(job->binding);
  }
  if (w.preload) {
    Result<Nanos> end = job->cache->Preload(0);
    if (!end.ok()) Die("preload failed: " + end.status().ToString());
    job->start = *end;
    if (lt != nullptr) (*lt)["sim_preload_s"] += ToSeconds(*end);
  }
  if (w.prefetch) {
    job->sched = std::make_unique<prefetch::PrefetchScheduler>(
        *job->cache, dep.fabric(), *job->snap, prefetch::PrefetchOptions{});
  }
  return job;
}

/// Map the snapshot's files to the fingerprints of the generated content.
bool MapExpected(Job& job, const Inputs& in) {
  const std::vector<core::FileMeta>& files = job.snap->files();
  if (files.size() != in.files.size()) return false;
  job.expected_hash.resize(files.size());
  for (size_t i = 0; i < files.size(); ++i) {
    auto it = in.hash_by_path.find(files[i].full_name);
    if (it == in.hash_by_path.end()) return false;
    job.expected_hash[i] = it->second;
  }
  return true;
}

/// One chunk-wise-shuffled epoch through the serialized-fetch training
/// pipeline; only the epoch itself is host-timed, the content checks after
/// it are not.
void RunEpoch(Job& job, core::Deployment& dep, Rep& rep, LayerValues* lt) {
  const auto t0 = HostClock::now();
  shuffle::ShufflePlan plan;
  {
    LayerSpan span(lt, "host_shuffle_s");
    plan = shuffle::ChunkWiseShuffle(*job.snap, {.group_size = kGroupSize},
                                     job.rng);
  }
  dlt::PipelineOptions popts;
  popts.io_workers = kIoWorkers;
  popts.model = kModel;
  popts.overlap = false;
  if (job.sched) {
    popts.epoch_start_hook = [&](Nanos workers_start) {
      LayerSpan span(lt, "host_prefetch_s");
      job.sched->StartEpoch(plan, workers_start);
      return Status::Ok();
    };
  }
  const std::vector<core::FileMeta>& files = job.snap->files();
  const size_t n = plan.file_order.size();
  std::vector<core::FileSlice> got(n);
  std::vector<core::FileMeta> metas;
  std::vector<std::string> paths;
  uint64_t failed = 0;
  auto read_batch = [&](size_t iter, sim::VirtualClock& clock) -> Status {
    const size_t begin = iter * kBatch;
    const size_t end = std::min(n, begin + kBatch);
    if (job.sched) {
      LayerSpan span(lt, "host_prefetch_s");
      job.sched->Advance(begin, clock.now());
    }
    const net::EndpointId reader =
        job.clients[iter % job.clients.size()]->endpoint();
    LayerSpan span(lt, "host_read_s");
    if (job.cache) {
      metas.clear();
      for (size_t i = begin; i < end; ++i) {
        metas.push_back(files[plan.file_order[i]]);
      }
      auto r = job.cache->GetFiles(clock, reader, metas);
      if (!r.ok()) {
        failed += end - begin;
        return Status::Ok();
      }
      std::move(r->begin(), r->end(), got.begin() + begin);
    } else {
      paths.clear();
      for (size_t i = begin; i < end; ++i) {
        paths.push_back(files[plan.file_order[i]].full_name);
      }
      auto r = dep.server(0).ReadFiles(clock, reader.node, job.snap->dataset(),
                                       paths);
      if (!r.ok() || r->size() != end - begin) {
        failed += end - begin;
        return Status::Ok();
      }
      for (size_t k = 0; k < r->size(); ++k) {
        got[begin + k] = core::FileSlice::Own(std::move((*r)[k]));
      }
    }
    return Status::Ok();
  };
  dlt::TrainingPipeline pipeline(popts);
  Result<dlt::EpochResult> res = pipeline.RunEpoch(
      job.start, (n + kBatch - 1) / kBatch, kShuffleCost, read_batch);
  if (job.sched) job.sched->FinishEpoch();
  rep.epochs_s += SecondsSince(t0);
  if (!res.ok()) Die("epoch failed: " + res.status().ToString());

  job.start = res->epoch_end;
  rep.epoch_ns.push_back(res->phases.Total());
  rep.wait_s.insert(rep.wait_s.end(), res->data_time_s.begin(),
                    res->data_time_s.end());
  if (lt != nullptr) (*lt)["sim_fetch_s"] += ToSeconds(res->phases.fetch);
  rep.attempted += n;
  rep.failed += failed;

  // The epoch must visit every file exactly once, with intact content.
  std::vector<bool> seen(files.size(), false);
  uint64_t missing = 0;
  for (size_t pos = 0; pos < n; ++pos) {
    const uint32_t f = plan.file_order[pos];
    if (f >= files.size() || seen[f]) {
      rep.correct = false;
      continue;
    }
    seen[f] = true;
    const core::FileSlice& s = got[pos];
    if (!s.valid()) {
      ++missing;
      continue;
    }
    if (s.size() != files[f].length ||
        ContentHash(s.view()) != job.expected_hash[f]) {
      rep.correct = false;
    }
  }
  if (n != files.size() || missing != failed) rep.correct = false;
}

void CollectCounters(LayerValues& out) {
  const obs::MetricsSnapshot snap = obs::Metrics().Snapshot();
  for (const auto& [name, prefix] : kLayerCounters) {
    out[name] = static_cast<double>(snap.SumCounters(prefix));
  }
  out["sim_device_busy_s"] =
      ToSeconds(snap.SumCounters("sim.device.busy_ns"));
}

Rep RunRep(const Workload& w, const Inputs& in, bool trace) {
  Rep rep;
  LayerValues* lt = nullptr;
  if (trace) {
    for (const char* name : kLayerSeconds) rep.layers[name] = 0;
    lt = &rep.layers;
  }
  const auto t0 = HostClock::now();
  core::DeploymentOptions dopts;
  dopts.num_client_nodes = kNodes;
  core::Deployment dep(dopts);
  {
    LayerSpan span(lt, "host_ingest_s");
    auto writer = dep.MakeClient(0, 99, in.spec.name, kChunkBytes);
    for (const dlt::GeneratedFile& f : in.files) {
      if (!writer->Put(f.path, f.content).ok()) Die("ingest failed");
    }
    if (!writer->Flush().ok()) Die("ingest flush failed");
  }
  dep.ResetDevices();
  std::unique_ptr<tenant::CacheFabric> fabric;
  if (w.shared_tier) fabric = std::make_unique<tenant::CacheFabric>(dep.fabric());
  std::vector<std::unique_ptr<Job>> jobs;
  for (size_t j = 0; j < w.jobs; ++j) {
    jobs.push_back(StartJob(dep, w, in, j, fabric.get(), lt));
  }
  rep.setup_s = SecondsSince(t0);

  for (auto& job : jobs) {
    if (!MapExpected(*job, in)) Die("snapshot does not match the dataset");
  }
  std::unique_ptr<net::FaultInjector> faults;
  if (w.rpc_drop_prob > 0) {
    net::FaultPlan plan;
    plan.seed = in.seed;
    plan.rpc_drop_prob = w.rpc_drop_prob;
    plan.fault_detect_timeout = Micros(200);
    faults = std::make_unique<net::FaultInjector>(plan);
    dep.fabric().set_fault_injector(faults.get());
  }
  obs::Metrics().ResetAll();
  for (size_t e = 0; e < w.epochs; ++e) {
    for (auto& job : jobs) RunEpoch(*job, dep, rep, lt);
  }
  dep.fabric().set_fault_injector(nullptr);
  if (trace) CollectCounters(rep.layers);
  if (fabric) {
    LayerSpan span(lt, "host_teardown_s");
    for (auto& job : jobs) {
      job->cache->Teardown(job->start);
      fabric->DeregisterTenant(job->binding);
    }
  }
  return rep;
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// Nearest-rank quantile.
double Quantile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<size_t>(rank, 1, v.size()) - 1];
}

/// Host time per file read across a repetition's measured epochs.
double HostUsPerFile(const Rep& r) {
  return r.epochs_s * 1e6 / static_cast<double>(r.attempted);
}

struct Output {
  std::string name;
  double value;
  std::string unit;
};

int Run(const Workload& w, uint64_t seed, double seconds, bool trace) {
  const auto gen_start = HostClock::now();
  const Inputs in = MakeInputs(seed);
  const double gen_s = SecondsSince(gen_start);
  // reps[0] warms the allocator and page tables: checked, not measured.
  std::vector<Rep> reps;
  reps.push_back(RunRep(w, in, trace));
  const auto start = HostClock::now();
  for (;;) {
    reps.push_back(RunRep(w, in, trace));
    const double elapsed = SecondsSince(start);
    std::fprintf(stderr, "rep %zu: setup %.4f s, %.3f us/file\n",
                 reps.size() - 1, reps.back().setup_s,
                 HostUsPerFile(reps.back()));
    const double measured = static_cast<double>(reps.size() - 1);
    if (measured >= kMinReps && elapsed * (measured + 1) / measured > seconds) {
      break;
    }
  }

  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  for (const Rep& r : reps) {
    correct = correct && r.correct && r.epoch_ns == reps[0].epoch_ns &&
              r.wait_s == reps[0].wait_s;
    attempted += r.attempted;
    failed += r.failed;
  }
  auto median_of = [&](auto&& field) {
    std::vector<double> v;
    for (size_t i = 1; i < reps.size(); ++i) v.push_back(field(reps[i]));
    return Median(std::move(v));
  };

  std::vector<Output> out;
  if (!trace) {
    const Rep& r0 = reps[0];
    Nanos total = 0;
    for (Nanos e : r0.epoch_ns) total += e;
    out.push_back({"sim_epoch_s",
                   ToSeconds(total) / static_cast<double>(r0.epoch_ns.size()),
                   "s"});
    out.push_back({"sim_wait_p50_ms", Quantile(r0.wait_s, 0.50) * 1e3, "ms"});
    out.push_back({"sim_wait_p99_ms", Quantile(r0.wait_s, 0.99) * 1e3, "ms"});
    out.push_back({"setup_s", median_of([](const Rep& r) { return r.setup_s; }),
                   "s"});
  } else {
    out.push_back({"host_us_per_file", median_of(HostUsPerFile), "us"});
    for (const auto& [name, prefix] : kLayerCounters) {
      out.push_back(
          {name, median_of([&](const Rep& r) { return r.layers.at(name); }),
           "count"});
    }
    for (const char* name : kLayerSeconds) {
      out.push_back(
          {name, median_of([&](const Rep& r) { return r.layers.at(name); }),
           "s"});
    }
  }

  std::fprintf(stderr,
               "perfbench: workload=%s seed=%llu inputs=%.2fs measured "
               "reps=%zu in %.2fs\n",
               w.name, static_cast<unsigned long long>(seed), gen_s,
               reps.size() - 1, SecondsSince(start));
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < out.size(); ++i) {
    char buf[128];
    std::snprintf(buf, sizeof(buf), "%.17g", out[i].value);
    if (i > 0) json += ", ";
    json += "\"" + out[i].name + "\": {\"value\": " + buf + ", \"unit\": \"" +
            out[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload cached|direct|prefetch|tenants "
               "--seed N --seconds S --trace 0|1\n");
  return 2;
}

}  // namespace
}  // namespace diesel::perfbench

int main(int argc, char** argv) {
  using namespace diesel::perfbench;
  const Workload* workload = nullptr;
  long long seed = -1;
  double seconds = -1;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    char* rest = nullptr;
    if (flag == "--workload") {
      for (const Workload& w : kWorkloads) {
        if (std::strcmp(w.name, value) == 0) workload = &w;
      }
      continue;
    }
    if (flag == "--seed") {
      seed = std::strtoll(value, &rest, 10);
    } else if (flag == "--seconds") {
      seconds = std::strtod(value, &rest);
    } else if (flag == "--trace") {
      trace = static_cast<int>(std::strtol(value, &rest, 10));
    } else {
      return Usage();
    }
    if (rest == value || *rest != '\0') return Usage();
  }
  if (argc % 2 != 1 || workload == nullptr || seed < 0 || !(seconds > 0) ||
      (trace != 0 && trace != 1)) {
    return Usage();
  }
  return Run(*workload, static_cast<uint64_t>(seed), seconds, trace == 1);
}
