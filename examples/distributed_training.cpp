// Distributed training example: the full production path.
//
// Servers are discovered through the ETCD-like config service (Fig. 2), the
// dataset is listed through a DIESEL-FUSE mount (§5), and a 4-node job
// trains a real softmax model: every I/O worker registers with the task
// (Fig. 7), a oneshot task-grained cache preloads the dataset, and each
// epoch's chunk-wise-shuffled mini-batches flow from the cache through the
// training pipeline.
//
// Run: ./distributed_training
#include <algorithm>
#include <cstdio>

#include "cache/registry.h"
#include "cache/task_cache.h"
#include "core/deployment.h"
#include "dlt/dataset_gen.h"
#include "dlt/pipeline.h"
#include "dlt/trainer.h"
#include "fusefs/fusefs.h"
#include "shuffle/shuffle.h"

using namespace diesel;

int main() {
  core::DeploymentOptions dopts;
  dopts.num_client_nodes = 4;
  dopts.num_servers = 2;
  core::Deployment deployment(dopts);

  // --- ingest a labelled dataset --------------------------------------------
  dlt::SampleSpec samples;
  samples.num_classes = 10;
  samples.dims = 32;
  samples.separation = 0.5;
  const size_t kTrain = 4000;
  {
    auto writer = deployment.MakeClient(0, 0, "imagenet", 16 * 1024);
    for (size_t i = 0; i < kTrain; ++i) {
      char name[64];
      std::snprintf(name, sizeof(name), "/imagenet/train/cls%02u/s%05zu.bin",
                    dlt::SampleLabel(samples, i), i);
      if (!writer->Put(name, dlt::MakeSample(samples, i)).ok()) return 1;
    }
    if (!writer->Flush().ok()) return 1;
  }

  // --- server discovery through the config service --------------------------
  sim::VirtualClock connect_clock;
  auto probe = deployment.MakeClientViaDiscovery(connect_clock, 0, 50,
                                                 "imagenet");
  if (!probe.ok()) return 1;
  std::printf("discovered %zu DIESEL servers via etcd in %.0fus virtual\n",
              deployment.config().NumKeys(),
              static_cast<double>(connect_clock.now()) / 1000.0);

  // --- mount the dataset (the POSIX view most scientists use) ---------------
  std::vector<std::unique_ptr<core::DieselClient>> daemon;
  std::vector<core::DieselClient*> daemon_raw;
  for (uint32_t i = 0; i < 2; ++i) {
    daemon.push_back(deployment.MakeClient(0, 60 + i, "imagenet"));
    if (!daemon.back()->FetchSnapshot().ok()) return 1;
    daemon_raw.push_back(daemon.back().get());
  }
  fusefs::FuseMount mount(daemon_raw);
  sim::VirtualClock ls_clock;
  auto listing = mount.ReadDir(ls_clock, "/imagenet/train");
  if (!listing.ok()) return 1;
  std::printf("mounted imagenet: train/ has %zu class directories\n",
              listing->size());

  // --- the distributed training task ----------------------------------------
  // One DIESEL client per I/O worker; registration order gives the master
  // ranks (Fig. 7).
  constexpr size_t kNodes = 4;
  constexpr size_t kWorkersPerNode = 4;
  constexpr size_t kMinibatch = 32;
  std::vector<std::unique_ptr<core::DieselClient>> workers;
  cache::TaskRegistry registry;
  for (size_t n = 0; n < kNodes; ++n) {
    for (size_t w = 0; w < kWorkersPerNode; ++w) {
      workers.push_back(
          deployment.MakeClient(n, static_cast<uint32_t>(100 + w), "imagenet"));
      registry.Register(workers.back()->endpoint());
    }
  }
  if (!workers[0]->FetchSnapshot().ok()) return 1;
  const core::MetadataSnapshot& snap = *workers[0]->snapshot();
  cache::TaskCache cache(deployment.fabric(), deployment.server(0), snap,
                         registry, {.policy = cache::CachePolicy::kOneshot});
  cache.EstablishConnections();
  auto preloaded = cache.Preload(0);
  if (!preloaded.ok()) return 1;
  std::printf("task cache preloaded: %zu chunks across %zu nodes "
              "(p x (n-1) = %zu connections)\n",
              snap.chunks().size(), kNodes, cache.connections_opened());

  dlt::TrainerOptions tropts;
  tropts.num_classes = samples.num_classes;
  tropts.dims = samples.dims;
  dlt::SoftmaxTrainer trainer(tropts);
  std::vector<dlt::LabelledSample> eval;
  for (size_t i = 0; i < 800; ++i) {
    auto s = dlt::SoftmaxTrainer::Decode(dlt::MakeSample(samples, kTrain + i));
    if (!s.ok()) return 1;
    eval.push_back(std::move(s).value());
  }

  // Each iteration's mini-batch is read from the cache by the next I/O
  // worker in turn, then the GPU step (ResNet-50's) runs on it.
  dlt::TrainingPipeline pipeline(
      {.io_workers = workers.size(), .overlap = false});
  Rng rng(42);
  Nanos start = *preloaded;
  std::printf("%-6s %-8s %-8s %-12s %s\n", "epoch", "top-1", "top-5",
              "data wait", "epoch time");
  for (int epoch = 1; epoch <= 5; ++epoch) {
    shuffle::ShufflePlan plan =
        shuffle::ChunkWiseShuffle(snap, {.group_size = 4}, rng);
    const size_t n = plan.file_order.size();
    std::vector<core::FileMeta> metas;
    std::vector<dlt::LabelledSample> batch;
    auto result = pipeline.RunEpoch(
        start, (n + kMinibatch - 1) / kMinibatch, /*shuffle_cost=*/0,
        [&](size_t iter, sim::VirtualClock& clock) -> Status {
          metas.clear();
          for (size_t i = iter * kMinibatch;
               i < std::min(n, (iter + 1) * kMinibatch); ++i) {
            metas.push_back(snap.files()[plan.file_order[i]]);
          }
          DIESEL_ASSIGN_OR_RETURN(
              std::vector<core::FileSlice> files,
              cache.GetFiles(clock, workers[iter % workers.size()]->endpoint(),
                             metas));
          batch.clear();
          for (const core::FileSlice& file : files) {
            DIESEL_ASSIGN_OR_RETURN(dlt::LabelledSample s,
                                    dlt::SoftmaxTrainer::Decode(file.view()));
            batch.push_back(std::move(s));
          }
          trainer.TrainBatch(batch);
          return Status::Ok();
        });
    if (!result.ok()) return 1;
    std::printf("%-6d %-8.3f %-8.3f %-7.2f ms   %.3fs virtual\n", epoch,
                trainer.TopKAccuracy(eval, 1), trainer.TopKAccuracy(eval, 5),
                result->total_data_wait_s * 1e3,
                ToSeconds(result->epoch_end - start));
    start = result->epoch_end;
  }
  std::printf("distributed_training OK\n");
  return 0;
}
