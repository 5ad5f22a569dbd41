// Ablation: fault-injection overhead. The same 2-epoch cached read
// workload runs under increasingly hostile seeded fault schedules — RPC
// drop probability swept from 0 to 5%, then a mid-epoch node flap on top —
// and reports the epoch makespan next to the injector/recovery counters.
// The contract under test: faults shift the tail (detection timeouts,
// backoff, degraded reads) but every byte read stays correct.
#include <memory>

#include "bench/bench_util.h"
#include "cache/registry.h"
#include "cache/task_cache.h"
#include "core/deployment.h"
#include "dlt/dataset_gen.h"
#include "net/fault_injector.h"

namespace diesel {
namespace {

constexpr size_t kNodes = 4;
constexpr size_t kClientsPerNode = 4;
constexpr int kEpochs = 2;

struct FaultRun {
  double epoch1_s = 0;
  double epoch2_s = 0;
  uint64_t rpc_drops = 0;
  uint64_t rejections = 0;
  uint64_t failovers = 0;
  uint64_t breaker_opens = 0;
  bool all_reads_ok = true;
  double hit_rate = 0;        // hand-computed from TaskCacheStats
  double reg_hit_rate = 0;    // same quantity, from the metrics registry
  bool registry_consistent = true;
};

FaultRun RunSchedule(double drop_prob, bool with_flap,
                     const dlt::DatasetSpec& spec,
                     const std::string& section) {
  core::DeploymentOptions opts;
  opts.num_client_nodes = kNodes;
  core::Deployment dep(opts);
  auto writer = dep.MakeClient(0, 99, spec.name);
  if (!dlt::ForEachFile(spec, [&](const dlt::GeneratedFile& f) {
        return writer->Put(f.path, f.content);
      }).ok() ||
      !writer->Flush().ok()) {
    std::abort();
  }
  dep.ResetDevices();

  std::vector<std::unique_ptr<core::DieselClient>> clients;
  cache::TaskRegistry registry;
  for (size_t c = 0; c < kNodes * kClientsPerNode; ++c) {
    clients.push_back(dep.MakeClient(c % kNodes,
                                     static_cast<uint32_t>(c / kNodes),
                                     spec.name));
    registry.Register(clients.back()->endpoint());
  }
  if (!clients[0]->FetchSnapshot().ok()) std::abort();
  const core::MetadataSnapshot& snap = *clients[0]->snapshot();

  cache::TaskCacheOptions copts;
  copts.policy = cache::CachePolicy::kOneshot;
  // Enough retry headroom that a node riding out its own flap (local reads
  // can't fail over) outlasts the longest scheduled outage.
  copts.retry.max_attempts = 10;
  copts.retry.initial_backoff = Micros(100);
  copts.breaker.cooldown = Millis(1);
  cache::TaskCache cache(dep.fabric(), dep.server(0), snap, registry, copts);
  cache.EstablishConnections();
  if (!cache.Preload(0).ok()) std::abort();

  // Faults cover the read phase only: ingest and preload run clean, like a
  // task that starts healthy and degrades mid-training.
  net::FaultPlan plan;
  plan.seed = 42;
  plan.rpc_drop_prob = drop_prob;
  plan.fault_detect_timeout = Micros(200);
  if (with_flap) {
    // Dropped mid-epoch-1, back before epoch 2: long enough to trip the
    // per-node breaker and force degraded reads.
    plan.node_flaps.push_back(
        {.node = 1, .down_at = Millis(2), .up_at = Millis(12)});
  }
  net::FaultInjector inj(plan);
  dep.fabric().set_fault_injector(&inj);

  // Snapshot the registry at read-phase start; the delta after the run must
  // agree with the hand-kept TaskCacheStats / injector counters.
  obs::MetricsSnapshot before = obs::Metrics().Snapshot();

  FaultRun run;
  Rng rng(5);
  Nanos train_start = 0;
  bench::OpenTimeline(0, Millis(1));
  if (with_flap) {
    bench::TimelineNote(Millis(2), "flap: n1 down");
    bench::TimelineNote(Millis(12), "flap: n1 up");
  }
  for (int epoch = 0; epoch < kEpochs; ++epoch) {
    std::vector<uint32_t> order(snap.num_files());
    for (uint32_t i = 0; i < order.size(); ++i) order[i] = i;
    rng.Shuffle(order);
    std::vector<sim::VirtualClock> clocks(clients.size(),
                                          sim::VirtualClock(train_start));
    size_t cursor = 0;
    Nanos end = sim::DriveEarliestFirst(
        clocks.size(), [&](size_t c) { return clocks[c].now(); },
        [&](size_t c) {
          if (cursor == order.size()) return false;
          const core::FileMeta& fm = snap.files()[order[cursor++]];
          auto r = cache.GetFile(clocks[c], clients[c]->endpoint(), fm);
          if (!r.ok()) run.all_reads_ok = false;
          bench::TimelineTick(clocks[c].now());
          return true;
        });
    bench::TimelineNote(end, "epoch " + std::to_string(epoch + 1) + " done");
    (epoch == 0 ? run.epoch1_s : run.epoch2_s) = ToSeconds(end - train_start);
    train_start = end;
  }
  bench::CloseTimeline(section, train_start);

  auto fstats = inj.stats();
  run.rpc_drops = fstats.rpc_drops;
  run.rejections = fstats.down_node_rejections;
  run.failovers = cache.stats().failovers;
  run.breaker_opens = cache.stats().breaker_opens;

  auto cstats = cache.stats();
  uint64_t reads = kEpochs * static_cast<uint64_t>(snap.num_files());
  uint64_t hits = cstats.local_hits + cstats.peer_hits;
  run.hit_rate = reads == 0 ? 0 : static_cast<double>(hits) / reads;

  obs::MetricsSnapshot delta = obs::Metrics().Snapshot().DeltaSince(before);
  uint64_t reg_hits = delta.SumCounters("cache.local_hits") +
                      delta.SumCounters("cache.peer_hits");
  run.reg_hit_rate = reads == 0 ? 0 : static_cast<double>(reg_hits) / reads;
  run.registry_consistent =
      reg_hits == hits &&
      delta.SumCounters("cache.failovers") == cstats.failovers &&
      delta.SumCounters("cache.breaker_opens") == cstats.breaker_opens &&
      delta.SumCounters("net.rpc.drops") == fstats.rpc_drops &&
      delta.SumCounters("net.rpc.flap_rejects") == fstats.down_node_rejections;

  dep.fabric().set_fault_injector(nullptr);
  return run;
}

void Run() {
  bench::Banner("Ablation: fault-injection overhead on cached reads");
  dlt::DatasetSpec spec;
  spec.name = "faults";
  spec.num_classes = 10;
  spec.files_per_class = 200;
  spec.mean_file_bytes = 16 * 1024;
  spec.fixed_size = true;

  bench::Table table({"drop prob", "flap", "epoch 1 (s)", "epoch 2 (s)",
                      "drops", "rejects", "failovers", "breaker", "hit rate",
                      "reg hit rate", "reg ok", "ok"});
  for (double drop : {0.0, 0.001, 0.01, 0.05}) {
    for (bool flap : {false, true}) {
      std::string section = "d" + bench::Fmt("%g", drop * 100) + "pct" +
                            (flap ? ".flap" : "");
      FaultRun r = RunSchedule(drop, flap, spec, section);
      table.AddRow({bench::Fmt("%.1f%%", drop * 100), flap ? "yes" : "no",
                    bench::Fmt("%.3f", r.epoch1_s),
                    bench::Fmt("%.3f", r.epoch2_s),
                    std::to_string(r.rpc_drops),
                    std::to_string(r.rejections),
                    std::to_string(r.failovers),
                    std::to_string(r.breaker_opens),
                    bench::Fmt("%.3f", r.hit_rate),
                    bench::Fmt("%.3f", r.reg_hit_rate),
                    r.registry_consistent ? "yes" : "NO",
                    r.all_reads_ok ? "yes" : "NO"});
      const std::string& tag = section;
      // In the flap arms, epoch1_s.*.flap is set by a single read: epoch 1
      // ends with one read that starts just after the flap's up_at (12 ms)
      // and takes ~21.9 ms. The row is where that read ends, not a cost per
      // dropped RPC, so it need not grow with the drop probability.
      bench::Metric("epoch1_s." + tag, "s", r.epoch1_s,
                    obs::Direction::kLowerIsBetter);
      bench::Metric("epoch2_s." + tag, "s", r.epoch2_s,
                    obs::Direction::kLowerIsBetter);
      // Correctness gates: any drift from 1.0 is a regression (tolerance 0).
      bench::Metric("all_reads_ok." + tag, "bool", r.all_reads_ok ? 1.0 : 0.0,
                    obs::Direction::kHigherIsBetter, 0.0);
      bench::Metric("registry_consistent." + tag, "bool",
                    r.registry_consistent ? 1.0 : 0.0,
                    obs::Direction::kHigherIsBetter, 0.0);
      bench::Info("rpc_drops." + tag, "count",
                  static_cast<double>(r.rpc_drops));
      bench::Info("failovers." + tag, "count",
                  static_cast<double>(r.failovers));
      bench::Info("hit_rate." + tag, "frac", r.hit_rate);
      bench::AddVirtualTime(
          static_cast<Nanos>((r.epoch1_s + r.epoch2_s) * 1e9));
    }
  }
  table.Print();
  std::printf("\nEvery row must read correct bytes; faults only move time. "
              "Drops charge the detection timeout and retry; a flapped node "
              "trips its circuit breaker and reads degrade to the server "
              "until recovery re-owns the partition. The 'reg' columns are "
              "recomputed from the process-wide metrics registry and must "
              "match the hand-kept stats exactly.\n");
}

}  // namespace
}  // namespace diesel

int main() {
  diesel::bench::OpenReport("ablation_faults", 42);
  diesel::bench::Param("epochs", 2.0);
  diesel::Run();
  return diesel::bench::CloseReport();
}
