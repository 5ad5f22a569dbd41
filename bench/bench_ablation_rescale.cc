// Ablation: elastic task membership under planned rescale and crashes.
//
// Arm 1 (scale sweep): a task at 16 / 128 / 512 nodes joins one node,
// crashes one and drains one, reporting the recovery-time objective of each
// transition (virtual time from the membership change until the last moved
// chunk is readable at its new owner) and the fraction of chunks a join
// moves — which consistent hashing pins near 1/(N+1) instead of the
// round-robin near-total reshuffle.
//
// Arm 2 (mid-epoch rescale): an 8-node cached read workload loses one node
// 40% into the epoch, either by planned drain (announce -> migrate ->
// depart) or by crash. The crash is not clairvoyant: the node flaps in the
// FaultInjector first, so reads to it burn detection timeouts and degrade
// to the backend until the membership layer learns of the loss and re-owns
// the partition. Reads are bucketed into virtual-time windows; the dip
// depth and duration of each arm quantify graceful degradation. Gates: the
// planned rescale completes with zero failed reads and its dip duration is
// strictly shorter than the crash's.
#include <algorithm>
#include <functional>
#include <memory>

#include "bench/bench_util.h"
#include "cache/registry.h"
#include "cache/task_cache.h"
#include "core/deployment.h"
#include "dlt/dataset_gen.h"
#include "membership/membership.h"
#include "net/fault_injector.h"

namespace diesel {
namespace {

constexpr uint64_t kChunkBytes = 64 * 1024;

// ---------------------------------------------------------------- arm 1 --

struct ScalePoint {
  size_t nodes = 0;
  size_t chunks = 0;
  double preload_s = 0;
  double join_s = 0;    // RTO of a join (migration makespan)
  double crash_s = 0;   // RTO of a crash (re-own makespan)
  double drain_s = 0;   // RTO of a planned drain
  double moved_frac = 0;  // fraction of chunks the join moved
  double ideal_frac = 0;  // 1/(N+1)
  uint64_t reown = 0;
  Nanos virtual_ns = 0;
};

ScalePoint RunScale(size_t n) {
  dlt::DatasetSpec spec;
  spec.name = "rescale";
  spec.num_classes = 8;
  spec.files_per_class = std::max<size_t>(1024, 8 * n) / 8;
  spec.mean_file_bytes = 16 * 1024;
  spec.fixed_size = true;

  core::DeploymentOptions opts;
  opts.num_client_nodes = n + 1;  // one spare for the join
  core::Deployment dep(opts);
  auto writer = dep.MakeClient(0, 99, spec.name, kChunkBytes);
  if (!dlt::ForEachFile(spec, [&](const dlt::GeneratedFile& f) {
        return writer->Put(f.path, f.content);
      }).ok() ||
      !writer->Flush().ok()) {
    std::abort();
  }
  dep.ResetDevices();
  if (!writer->FetchSnapshot().ok()) std::abort();
  const core::MetadataSnapshot& snap = *writer->snapshot();

  cache::TaskRegistry registry;
  registry.Register(writer->endpoint());
  cache::TaskCacheOptions copts;
  copts.policy = cache::CachePolicy::kOneshot;
  cache::TaskCache cache(dep.fabric(), dep.server(0), snap, registry, copts);

  membership::MembershipTable table;
  std::vector<sim::NodeId> members(n);
  for (size_t i = 0; i < n; ++i) members[i] = dep.client_node(i);
  table.Bootstrap(members, 0);
  cache.AttachMembership(table);

  ScalePoint p;
  p.nodes = n;
  p.chunks = snap.chunks().size();
  auto preload_end = cache.Preload(0);
  if (!preload_end.ok()) std::abort();
  p.preload_s = ToSeconds(preload_end.value());

  // Join the spare: resident chunks stream from their old owners.
  Nanos t0 = preload_end.value() + Millis(1);
  table.Join(dep.client_node(n), t0);
  p.join_s = ToSeconds(cache.last_transition_end() - t0);
  p.moved_frac =
      static_cast<double>(cache.stats().migrated_chunks) / p.chunks;
  p.ideal_frac = 1.0 / static_cast<double>(n + 1);

  // Crash one node: its share is lost and re-owned from the backend.
  Nanos t1 = cache.last_transition_end() + Millis(1);
  uint64_t reown_before = cache.stats().reown_chunks;
  table.Crash(dep.client_node(0), t1);
  p.crash_s = ToSeconds(cache.last_transition_end() - t1);
  p.reown = cache.stats().reown_chunks - reown_before;

  // Drain another: announce, stream, depart — backend never touched.
  Nanos t2 = cache.last_transition_end() + Millis(1);
  table.StartDrain(dep.client_node(1), t2);
  Nanos migrated_by = cache.last_transition_end();
  table.CompleteDrain(dep.client_node(1), migrated_by + Millis(1));
  p.drain_s = ToSeconds(migrated_by - t2);

  p.virtual_ns = cache.last_transition_end();
  return p;
}

// ---------------------------------------------------------------- arm 2 --

enum class ChurnKind { kNone, kDrain, kCrash };

struct EpochRun {
  Nanos epoch_end = 0;
  uint64_t failed_reads = 0;
  std::vector<uint64_t> windows;  // reads completed per window
};

struct DipShape {
  double baseline = 0;    // reads per window before the event
  double depth = 0;       // min post-event window / baseline
  double duration_s = 0;  // event -> last window below 75% of baseline
};

/// Closed-loop cached read epoch over `kNodes` masters; fires the requested
/// membership change once the workload's frontier passes `event_at`. A
/// crash goes down in the FaultInjector at `event_at` but reaches the
/// membership table only `detect` later — the unplanned-loss detection
/// window a planned drain never pays.
/// When `view_out` is non-null it receives the epoch's cluster utilization
/// view (deltaed against the registry state at epoch start). Sections also
/// refresh the derived cluster.*.util gauges once per virtual millisecond so
/// the timeline buckets carry per-node utilization curves across the churn
/// event.
EpochRun RunEpoch(ChurnKind kind, Nanos event_at, Nanos drain_grace,
                  Nanos detect, Nanos window, const dlt::DatasetSpec& spec,
                  const std::string& section = "",
                  obs::ClusterView* view_out = nullptr) {
  constexpr size_t kNodes = 8;
  constexpr size_t kClientsPerNode = 2;

  core::DeploymentOptions opts;
  opts.num_client_nodes = kNodes;
  core::Deployment dep(opts);
  auto writer = dep.MakeClient(0, 99, spec.name, kChunkBytes);
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
  copts.retry.max_attempts = 10;
  copts.retry.initial_backoff = Micros(100);
  copts.breaker.cooldown = Millis(1);
  cache::TaskCache cache(dep.fabric(), dep.server(0), snap, registry, copts);
  cache.EstablishConnections();

  membership::MembershipTable table;
  std::vector<sim::NodeId> members(kNodes);
  for (size_t i = 0; i < kNodes; ++i) members[i] = dep.client_node(i);
  table.Bootstrap(members, 0);
  cache.AttachMembership(table);
  if (!cache.Preload(0).ok()) std::abort();

  // Membership events the read loop fires as its frontier advances — the
  // same shape ChurnDriver::AdvanceTo has, inlined so each arm stays a
  // two-line schedule.
  const sim::NodeId victim = dep.client_node(3);
  struct Event {
    Nanos at;
    std::function<void()> fire;
  };
  std::vector<Event> events;
  net::FaultPlan plan;
  plan.seed = 42;
  plan.fault_detect_timeout = Micros(200);
  if (kind == ChurnKind::kDrain) {
    events.push_back({event_at, [&] { table.StartDrain(victim, event_at); }});
    events.push_back({event_at + drain_grace, [&] {
                        table.CompleteDrain(victim, event_at + drain_grace);
                      }});
  } else if (kind == ChurnKind::kCrash) {
    // The node dies at event_at (injector: RPCs to it time out and reads
    // degrade); membership learns of the loss `detect` later and re-owns.
    plan.node_flaps.push_back(
        {.node = victim, .down_at = event_at, .up_at = ~Nanos{0}});
    Nanos crash_seen = event_at + detect;
    events.push_back({crash_seen, [&table, victim, crash_seen] {
                        table.Crash(victim, crash_seen);
                      }});
  }
  net::FaultInjector inj(plan);
  dep.fabric().set_fault_injector(&inj);
  size_t next_event = 0;

  if (!section.empty()) {
    bench::OpenTimeline(0, Millis(1));
    if (kind == ChurnKind::kDrain) {
      bench::TimelineNote(event_at, "drain start: n3");
      bench::TimelineNote(event_at + drain_grace, "drain complete: n3");
    } else if (kind == ChurnKind::kCrash) {
      bench::TimelineNote(event_at, "crash: n3 down");
      bench::TimelineNote(event_at + detect, "crash detected");
    }
  }

  obs::MetricsSnapshot util_base = obs::Metrics().Snapshot();
  Nanos next_util = section.empty() ? ~Nanos{0} : Millis(1);

  EpochRun run;
  Rng rng(5);
  std::vector<uint32_t> order(snap.num_files());
  for (uint32_t i = 0; i < order.size(); ++i) order[i] = i;
  rng.Shuffle(order);
  std::vector<sim::VirtualClock> clocks(clients.size(), sim::VirtualClock(0));
  // A crash kills the victim's own dataloader workers with it: each retires
  // at its first turn past the crash, and the survivors drain the shared
  // work queue (a planned drain keeps every worker: the node serves until
  // it departs).
  size_t cursor = 0;
  run.epoch_end = sim::DriveEarliestFirst(
      clocks.size(), [&](size_t c) { return clocks[c].now(); },
      [&](size_t c) {
        if (cursor == order.size()) return false;
        if (kind == ChurnKind::kCrash && c % kNodes == 3 &&
            clocks[c].now() >= event_at) {
          return false;
        }
        while (next_event < events.size() &&
               events[next_event].at <= clocks[c].now()) {
          events[next_event++].fire();
        }
        const core::FileMeta& fm = snap.files()[order[cursor++]];
        auto r = cache.GetFile(clocks[c], clients[c]->endpoint(), fm);
        if (clocks[c].now() >= next_util) {
          bench::ExportClusterUtil(clocks[c].now(), &util_base);
          next_util = clocks[c].now() + Millis(1);
        }
        if (!section.empty()) bench::TimelineTick(clocks[c].now());
        if (!r.ok()) {
          ++run.failed_reads;
          return true;
        }
        size_t w = static_cast<size_t>(clocks[c].now() / window);
        if (run.windows.size() <= w) run.windows.resize(w + 1, 0);
        ++run.windows[w];
        return true;
      });
  while (next_event < events.size()) events[next_event++].fire();
  if (view_out != nullptr) {
    *view_out = bench::ExportClusterUtil(run.epoch_end, &util_base);
  } else if (!section.empty()) {
    bench::ExportClusterUtil(run.epoch_end, &util_base);
  }
  if (!section.empty()) bench::CloseTimeline(section, run.epoch_end);
  dep.fabric().set_fault_injector(nullptr);
  return run;
}

DipShape AnalyzeDip(const EpochRun& run, Nanos event_at, Nanos window) {
  DipShape d;
  size_t ev = static_cast<size_t>(event_at / window);
  // The window containing epoch_end is partial (ramp-down): exclude it.
  size_t last = std::min(run.windows.size(),
                         static_cast<size_t>(run.epoch_end / window));
  if (ev == 0 || ev >= last) return d;
  uint64_t sum = 0;
  for (size_t w = 0; w < ev; ++w) sum += run.windows[w];
  d.baseline = static_cast<double>(sum) / ev;
  if (d.baseline <= 0) return d;
  d.depth = 1.0;
  size_t last_below = 0;
  bool any_below = false;
  for (size_t w = ev; w < last; ++w) {
    double frac = static_cast<double>(run.windows[w]) / d.baseline;
    d.depth = std::min(d.depth, frac);
    if (frac < 0.75) {
      last_below = w;
      any_below = true;
    }
  }
  if (any_below) {
    d.duration_s =
        ToSeconds(static_cast<Nanos>(last_below + 1) * window - event_at);
  }
  return d;
}

void Run() {
  bench::Banner("Ablation: elastic membership — rescale RTOs and mid-epoch "
                "churn dips");

  // Arm 1: recovery-time objectives across task sizes.
  bench::Table scale({"nodes", "chunks", "preload (s)", "join RTO (s)",
                      "moved frac", "ideal 1/(N+1)", "crash RTO (s)",
                      "re-owned", "drain RTO (s)"});
  for (size_t n : {16u, 128u, 512u}) {
    ScalePoint p = RunScale(n);
    scale.AddRow({std::to_string(p.nodes), std::to_string(p.chunks),
                  bench::Fmt("%.4f", p.preload_s),
                  bench::Fmt("%.4f", p.join_s),
                  bench::Fmt("%.4f", p.moved_frac),
                  bench::Fmt("%.4f", p.ideal_frac),
                  bench::Fmt("%.4f", p.crash_s), std::to_string(p.reown),
                  bench::Fmt("%.4f", p.drain_s)});
    std::string tag = "n" + std::to_string(n);
    bench::Metric("join_rto_s." + tag, "s", p.join_s,
                  obs::Direction::kLowerIsBetter);
    bench::Metric("crash_rto_s." + tag, "s", p.crash_s,
                  obs::Direction::kLowerIsBetter);
    bench::Metric("drain_rto_s." + tag, "s", p.drain_s,
                  obs::Direction::kLowerIsBetter);
    // Consistent hashing property: a join moves chunks, but only O(1/N) of
    // them — a blown ring would reshuffle everything (tolerance 0).
    bool near_ideal = p.moved_frac > 0 && p.moved_frac <= 4.0 * p.ideal_frac;
    bench::Metric("join_moves_near_ideal." + tag, "bool",
                  near_ideal ? 1.0 : 0.0, obs::Direction::kHigherIsBetter,
                  0.0);
    bench::Info("moved_frac." + tag, "frac", p.moved_frac);
    bench::Info("ideal_frac." + tag, "frac", p.ideal_frac);
    bench::AddVirtualTime(p.virtual_ns);
  }
  scale.Print();

  // Arm 2: mid-epoch rescale — planned drain vs crash.
  dlt::DatasetSpec spec;
  spec.name = "midepoch";
  spec.num_classes = 10;
  spec.files_per_class = 200;
  spec.mean_file_bytes = 16 * 1024;
  spec.fixed_size = true;

  // Calibrate the clean epoch, then fire each churn kind 40% in.
  EpochRun clean = RunEpoch(ChurnKind::kNone, 0, 0, 0, Millis(1), spec);
  Nanos window = std::max<Nanos>(Micros(50), clean.epoch_end / 64);
  Nanos event_at = static_cast<Nanos>(clean.epoch_end * 2 / 5);
  Nanos grace = std::max<Nanos>(Millis(1), clean.epoch_end / 20);
  Nanos detect = std::max<Nanos>(Millis(1), clean.epoch_end / 10);
  obs::ClusterView clean_view;
  obs::ClusterView crash_view;
  clean = RunEpoch(ChurnKind::kNone, 0, 0, 0, window, spec, "clean",
                   &clean_view);
  EpochRun drain =
      RunEpoch(ChurnKind::kDrain, event_at, grace, 0, window, spec, "drain");
  EpochRun crash =
      RunEpoch(ChurnKind::kCrash, event_at, grace, detect, window, spec,
               "crash", &crash_view);
  DipShape ddip = AnalyzeDip(drain, event_at, window);
  DipShape cdip = AnalyzeDip(crash, event_at, window);

  bench::Table mid({"arm", "epoch (s)", "failed reads", "baseline r/w",
                    "dip depth", "dip duration (s)"});
  mid.AddRow({"clean", bench::Fmt("%.4f", ToSeconds(clean.epoch_end)), "0",
              "-", "-", "-"});
  mid.AddRow({"planned drain", bench::Fmt("%.4f", ToSeconds(drain.epoch_end)),
              std::to_string(drain.failed_reads),
              bench::Fmt("%.1f", ddip.baseline),
              bench::Fmt("%.2f", ddip.depth),
              bench::Fmt("%.4f", ddip.duration_s)});
  mid.AddRow({"crash", bench::Fmt("%.4f", ToSeconds(crash.epoch_end)),
              std::to_string(crash.failed_reads),
              bench::Fmt("%.1f", cdip.baseline),
              bench::Fmt("%.2f", cdip.depth),
              bench::Fmt("%.4f", cdip.duration_s)});
  mid.Print();

  bench::Metric("epoch_clean_s", "s", ToSeconds(clean.epoch_end),
                obs::Direction::kLowerIsBetter);
  bench::Metric("epoch_drain_s", "s", ToSeconds(drain.epoch_end),
                obs::Direction::kLowerIsBetter);
  bench::Metric("epoch_crash_s", "s", ToSeconds(crash.epoch_end),
                obs::Direction::kLowerIsBetter);
  // Acceptance gates (tolerance 0): a planned rescale never fails a read,
  // and its throughput dip is strictly shorter than the crash's.
  bench::Metric("planned_zero_failed_reads", "bool",
                drain.failed_reads == 0 ? 1.0 : 0.0,
                obs::Direction::kHigherIsBetter, 0.0);
  bench::Metric("planned_dip_lt_crash", "bool",
                ddip.duration_s < cdip.duration_s ? 1.0 : 0.0,
                obs::Direction::kHigherIsBetter, 0.0);
  bench::Info("crash_failed_reads", "count",
              static_cast<double>(crash.failed_reads));
  bench::Info("drain_dip_duration_s", "s", ddip.duration_s);
  bench::Info("crash_dip_duration_s", "s", cdip.duration_s);
  bench::Info("drain_dip_depth", "frac", ddip.depth);
  bench::Info("crash_dip_depth", "frac", cdip.depth);
  // Per-node utilization skew: the clean epoch sets the balanced reference;
  // the crash epoch shows how far the re-own traffic tilts the survivors.
  bench::MetricImbalance("cluster.imbalance.clean", clean_view);
  bench::MetricImbalance("cluster.imbalance.crash", crash_view);
  std::printf("\nClean-epoch cluster utilization:\n%s",
              clean_view.Render(6).c_str());
  std::printf("\nCrash-epoch cluster utilization:\n%s",
              crash_view.Render(6).c_str());
  bench::AddVirtualTime(clean.epoch_end + drain.epoch_end + crash.epoch_end);

  std::printf("\nA join moves ~1/(N+1) of the chunks (consistent hashing); "
              "its RTO shrinks with N because the per-node share does. A "
              "planned drain streams peer-to-peer while the leaving node "
              "keeps serving, so the mid-epoch dip is brief; a crash pays "
              "backend re-own latency and reads stall until the moved "
              "chunks land.\n");
}

}  // namespace
}  // namespace diesel

int main() {
  diesel::bench::OpenReport("ablation_rescale", 42);
  diesel::bench::Param("chunk_bytes", static_cast<double>(diesel::kChunkBytes));
  diesel::Run();
  return diesel::bench::CloseReport();
}
