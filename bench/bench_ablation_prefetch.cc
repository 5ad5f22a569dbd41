// Ablation: clairvoyant prefetch + Belady eviction for the task cache.
//
// The chunk-wise shuffle plan (§4.3) fixes the whole epoch's access
// sequence when it is drawn, so the prefetch scheduler can fill chunks
// ahead of the training cursor and the cache can evict the chunk with the
// farthest next access (Belady's MIN) instead of FIFO. Three arms, all
// on-demand policy, under a capacity sweep that makes the cache hold only a
// fraction of each node's partition:
//
//   ondemand    — no scheduler, FIFO eviction (the seed behavior);
//   nextgroup   — scheduler with a one-group lookahead, FIFO eviction
//                 (the GroupWindowReader-style heuristic);
//   clairvoyant — whole-epoch lookahead, Belady eviction.
//
// Reported per capacity point: summed dlt.phase.fetch for epochs >= 2
// (steady state; epoch 1 is the cold pull everywhere), gated per arm, and
// the clairvoyant reduction vs. ondemand as an info row. The bench fails
// unless that reduction is >= 25% in the capacity-bound configs.
#include <algorithm>
#include <memory>

#include "bench/bench_util.h"
#include "cache/registry.h"
#include "cache/task_cache.h"
#include "core/deployment.h"
#include "dlt/dataset_gen.h"
#include "dlt/pipeline.h"
#include "prefetch/scheduler.h"
#include "shuffle/shuffle.h"

namespace diesel {
namespace {

constexpr size_t kNodes = 4;
constexpr size_t kClientsPerNode = 2;
constexpr uint64_t kChunkBytes = 256 * 1024;
constexpr size_t kGroupSize = 4;     // chunks per shuffle group
constexpr size_t kBatch = 16;        // files per iteration
constexpr size_t kEpochs = 4;
constexpr uint64_t kSeed = 7;

enum class Arm { kOnDemand, kNextGroup, kClairvoyant };

const char* ArmName(Arm a) {
  switch (a) {
    case Arm::kOnDemand: return "ondemand";
    case Arm::kNextGroup: return "nextgroup";
    case Arm::kClairvoyant: return "clairvoyant";
  }
  return "?";
}

struct ArmResult {
  double fetch_epoch1_s = 0;  // cold epoch
  double fetch_rest_s = 0;    // summed dlt.phase.fetch, epochs >= 2
  double total_s = 0;         // virtual end-to-end time
  cache::TaskCacheStats cache_stats;
  prefetch::PrefetchSchedulerStats sched_stats;
};

ArmResult RunArm(Arm arm, double cap_frac, const dlt::DatasetSpec& spec) {
  core::DeploymentOptions dopts;
  dopts.num_client_nodes = kNodes;
  core::Deployment dep(dopts);
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

  uint64_t payload = 0;
  for (const auto& fm : snap.files()) payload += fm.length;
  cache::TaskCacheOptions copts;
  copts.per_node_capacity_bytes =
      static_cast<uint64_t>(static_cast<double>(payload) / kNodes * cap_frac);
  cache::TaskCache cache(dep.fabric(), dep.server(0), snap, registry, copts);
  cache.EstablishConnections();

  // Same seed in every arm: identical plans, so arms differ only in the
  // prefetch/eviction strategy.
  Rng rng(kSeed);
  std::vector<shuffle::ShufflePlan> plans;
  plans.reserve(kEpochs);
  for (size_t e = 0; e < kEpochs; ++e) {
    plans.push_back(
        shuffle::ChunkWiseShuffle(snap, {.group_size = kGroupSize}, rng));
  }

  std::unique_ptr<prefetch::PrefetchScheduler> sched;
  if (arm != Arm::kOnDemand) {
    prefetch::PrefetchOptions popts;
    popts.belady_eviction = arm == Arm::kClairvoyant;
    popts.lookahead_files =
        arm == Arm::kClairvoyant
            ? static_cast<size_t>(-1)
            : std::max<size_t>(1, plans[0].file_order.size() /
                                      plans[0].num_groups());
    sched = std::make_unique<prefetch::PrefetchScheduler>(
        cache, dep.fabric(), snap, popts);
  }

  ArmResult out;
  Nanos t = 0;
  for (size_t e = 0; e < kEpochs; ++e) {
    const shuffle::ShufflePlan& plan = plans[e];
    dlt::PipelineOptions popts;
    popts.overlap = false;
    if (sched) {
      popts.epoch_start_hook = [&](Nanos workers_start) {
        sched->StartEpoch(plan, workers_start);
        return Status::Ok();
      };
    }
    dlt::TrainingPipeline pipe(popts);
    const size_t iters = (plan.file_order.size() + kBatch - 1) / kBatch;
    auto read_batch = [&](size_t iter, sim::VirtualClock& w) -> Status {
      if (sched) sched->Advance(iter * kBatch, w.now());
      size_t end = std::min((iter + 1) * kBatch, plan.file_order.size());
      // The whole mini-batch goes through the coalesced multi-get: misses
      // grouped per owner ride one batched RPC instead of kBatch singles.
      std::vector<core::FileMeta> metas;
      metas.reserve(end - iter * kBatch);
      for (size_t i = iter * kBatch; i < end; ++i) {
        metas.push_back(snap.files()[plan.file_order[i]]);
      }
      auto r = cache.GetFiles(w, clients[0]->endpoint(), metas);
      if (!r.ok()) return r.status();
      return Status::Ok();
    };
    auto res = pipe.RunEpoch(t, iters, Millis(10), read_batch);
    if (!res.ok()) std::abort();
    (e == 0 ? out.fetch_epoch1_s : out.fetch_rest_s) +=
        ToSeconds(res->phases.fetch);
    t = res->epoch_end;
    if (sched) sched->FinishEpoch();
  }
  out.total_s = ToSeconds(t);
  out.cache_stats = cache.stats();
  if (sched) out.sched_stats = sched->stats();
  return out;
}

void Run() {
  bench::Banner(
      "Ablation: clairvoyant prefetch + Belady eviction vs on-demand FIFO");
  dlt::DatasetSpec spec;
  spec.name = "pf";
  spec.num_classes = 8;
  spec.files_per_class = 160;  // 1280 files x 16KB = 80 chunks of 256KB
  spec.mean_file_bytes = 16 * 1024;
  spec.fixed_size = true;

  bench::Table table({"capacity", "arm", "fetch e1 (s)", "fetch e2+ (s)",
                      "total (s)", "evictions", "pf hit/late/wasted"});
  for (double cap_frac : {0.25, 0.5, 1.0}) {
    double ondemand_rest = 0;
    for (Arm arm :
         {Arm::kOnDemand, Arm::kNextGroup, Arm::kClairvoyant}) {
      ArmResult r = RunArm(arm, cap_frac, spec);
      if (arm == Arm::kOnDemand) ondemand_rest = r.fetch_rest_s;
      table.AddRow(
          {bench::Fmt("%.0f%%", cap_frac * 100), ArmName(arm),
           bench::Fmt("%.3f", r.fetch_epoch1_s),
           bench::Fmt("%.3f", r.fetch_rest_s), bench::Fmt("%.3f", r.total_s),
           bench::FmtCount(static_cast<double>(r.cache_stats.evictions)),
           bench::Fmt("%.0f", static_cast<double>(r.cache_stats.prefetch_hits)) +
               "/" +
               bench::Fmt("%.0f",
                          static_cast<double>(r.cache_stats.prefetch_late)) +
               "/" +
               bench::Fmt("%.0f",
                          static_cast<double>(r.cache_stats.prefetch_wasted))});
      std::string tag = std::string(ArmName(arm)) + ".cap" +
                        bench::Fmt("%.0f", cap_frac * 100);
      bench::Metric("fetch_s." + tag, "s", r.fetch_rest_s,
                    obs::Direction::kLowerIsBetter);
      bench::Info("fetch_epoch1_s." + tag, "s", r.fetch_epoch1_s);
      bench::Info("prefetch_issued." + tag, "count",
                  static_cast<double>(r.sched_stats.issued));
      bench::Info("prefetch_cancelled." + tag, "count",
                  static_cast<double>(r.sched_stats.cancelled));
      bench::AddVirtualTime(Seconds(r.total_s));
      if (arm == Arm::kClairvoyant && cap_frac < 1.0) {
        // The bench's claim: clairvoyant+Belady cuts steady-state fetch
        // stall by >= 25% vs on-demand FIFO when capacity-bound. The ratio
        // is not gated: a faster on-demand arm would read as a regression
        // although every arm's own fetch_s (gated above) fell.
        double reduction =
            ondemand_rest > 0
                ? (ondemand_rest - r.fetch_rest_s) / ondemand_rest * 100
                : 0;
        std::string cap = bench::Fmt("%.0f", cap_frac * 100);
        bench::Info("fetch_reduction_pct.cap" + cap, "%", reduction);
        if (reduction < 25) {
          std::fprintf(stderr,
                       "FAIL: clairvoyant cuts steady-state fetch stall by "
                       "%.1f%% at %s%% capacity, short of the claimed 25%%\n",
                       reduction, cap.c_str());
          std::abort();
        }
      }
    }
  }
  table.Print();
  std::printf(
      "\nThe shuffle plan fixes the epoch's access sequence at draw time, so "
      "prefetch is clairvoyant (Dryden et al.): fills run ahead of the "
      "cursor on background streams and Belady eviction keeps the chunks "
      "with the nearest reuse. Steady-state fetch stall collapses while "
      "on-demand FIFO re-pulls evicted chunks on the critical path.\n");
}

}  // namespace
}  // namespace diesel

int main() {
  diesel::bench::OpenReport("ablation_prefetch", 7);
  diesel::bench::Param("client_nodes", 4.0);
  diesel::bench::Param("epochs", 4.0);
  diesel::Run();
  return diesel::bench::CloseReport();
}
