// Ablation: cache policies (§4.2) — oneshot (pull the dataset right after
// registration, overlapping with model/checkpoint loading) versus on-demand
// (pull chunks on first miss). Reports first-epoch and steady-state epoch
// times, plus the benefit of overlapping the oneshot load with a checkpoint
// load of varying length.
#include <memory>

#include "bench/bench_util.h"
#include "cache/registry.h"
#include "cache/task_cache.h"
#include "core/deployment.h"
#include "dlt/dataset_gen.h"

namespace diesel {
namespace {

constexpr size_t kNodes = 4;
constexpr size_t kClientsPerNode = 4;

struct EpochTimes {
  double first_epoch_s = 0;
  double second_epoch_s = 0;
};

EpochTimes RunPolicy(cache::CachePolicy policy, Nanos checkpoint_load,
                     const dlt::DatasetSpec& spec) {
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
  cache::TaskCache cache(dep.fabric(), dep.server(0), snap, registry,
                         {.policy = policy});
  cache.EstablishConnections();

  // Oneshot pulls in the background while the checkpoint loads; training
  // starts at max(checkpoint loaded, nothing else) and may still miss if
  // the pull is unfinished — here the pull is fully in the background, so
  // training starts right after the checkpoint and hits whatever is loaded.
  Nanos train_start = checkpoint_load;
  if (policy == cache::CachePolicy::kOneshot) {
    auto end = cache.Preload(0);
    if (!end.ok()) std::abort();
    // Chunks are resident from max(preload end, checkpoint) on; the cache
    // state is already final, so only the start time shifts.
    train_start = std::max(train_start, std::min(end.value(), checkpoint_load));
  }

  EpochTimes times;
  Rng rng(5);
  for (int epoch = 0; epoch < 2; ++epoch) {
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
          if (!r.ok()) std::abort();
          return true;
        });
    (epoch == 0 ? times.first_epoch_s : times.second_epoch_s) =
        ToSeconds(end - train_start);
    train_start = end;
  }
  return times;
}

void Run() {
  bench::Banner("Ablation: oneshot vs on-demand cache policy (§4.2)");
  dlt::DatasetSpec spec;
  spec.name = "pol";
  spec.num_classes = 10;
  spec.files_per_class = 800;
  spec.mean_file_bytes = 16 * 1024;
  spec.fixed_size = true;

  bench::Table table({"policy", "checkpoint load", "epoch 1 (s)",
                      "epoch 2 (s)", "epoch1/epoch2"});
  for (Nanos ckpt : {Nanos{0}, Seconds(2.0)}) {
    for (auto policy :
         {cache::CachePolicy::kOnDemand, cache::CachePolicy::kOneshot}) {
      EpochTimes t = RunPolicy(policy, ckpt, spec);
      table.AddRow(
          {policy == cache::CachePolicy::kOneshot ? "oneshot" : "on-demand",
           bench::Fmt("%.0fs", ToSeconds(ckpt)),
           bench::Fmt("%.3f", t.first_epoch_s),
           bench::Fmt("%.3f", t.second_epoch_s),
           bench::Fmt("%.2fx", t.first_epoch_s / t.second_epoch_s)});
      std::string tag =
          std::string(policy == cache::CachePolicy::kOneshot ? "oneshot"
                                                             : "ondemand") +
          ".ckpt" + bench::Fmt("%.0f", ToSeconds(ckpt)) + "s";
      bench::Metric("epoch1_s." + tag, "s", t.first_epoch_s,
                    obs::Direction::kLowerIsBetter);
      bench::Metric("epoch2_s." + tag, "s", t.second_epoch_s,
                    obs::Direction::kLowerIsBetter);
      bench::AddVirtualTime(
          static_cast<Nanos>((t.first_epoch_s + t.second_epoch_s) * 1e9));
    }
  }
  table.Print();
  std::printf("\nPaper: oneshot removes the first-epoch read-latency penalty "
              "by pulling the dataset while the checkpoint/pretrained model "
              "loads; on-demand pays it in epoch 1 and matches from epoch 2.\n");
}

}  // namespace
}  // namespace diesel

int main() {
  diesel::bench::OpenReport("ablation_policy", 5);
  diesel::bench::Param("client_nodes", 4.0);
  diesel::Run();
  return diesel::bench::CloseReport();
}
