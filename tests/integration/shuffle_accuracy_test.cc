// Regression form of the Fig. 13 claim: training with chunk-wise shuffle
// must reach the same accuracy as shuffle-over-dataset (within a small
// tolerance), end-to-end through DIESEL storage.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "core/deployment.h"
#include "dlt/dataset_gen.h"
#include "dlt/pipeline.h"
#include "dlt/trainer.h"
#include "shuffle/group_reader.h"
#include "shuffle/shuffle.h"

namespace diesel {
namespace {

constexpr size_t kTrain = 3000;
constexpr size_t kEval = 600;
constexpr size_t kEpochs = 5;

struct Rig {
  dlt::SampleSpec samples;
  std::unique_ptr<core::Deployment> dep;
  std::vector<dlt::LabelledSample> eval;

  Rig() {
    samples.num_classes = 10;
    samples.dims = 32;
    samples.separation = 0.45;
    core::DeploymentOptions opts;
    opts.num_client_nodes = 2;
    dep = std::make_unique<core::Deployment>(opts);
    auto writer = dep->MakeClient(0, 0, "acc", 8 * 1024);
    // Class-sorted write order: worst case for chunk-local class diversity.
    for (size_t c = 0; c < samples.num_classes; ++c) {
      for (size_t i = c; i < kTrain; i += samples.num_classes) {
        char name[64];
        std::snprintf(name, sizeof(name), "/acc/cls%02zu/s%05zu.bin", c, i);
        EXPECT_TRUE(writer->Put(name, dlt::MakeSample(samples, i)).ok());
      }
    }
    EXPECT_TRUE(writer->Flush().ok());
    for (size_t i = 0; i < kEval; ++i) {
      auto s = dlt::SoftmaxTrainer::Decode(
          dlt::MakeSample(samples, kTrain + i));
      EXPECT_TRUE(s.ok());
      eval.push_back(std::move(s).value());
    }
  }

  dlt::SoftmaxTrainer MakeTrainer() const {
    dlt::TrainerOptions topts;
    topts.num_classes = samples.num_classes;
    topts.dims = samples.dims;
    topts.learning_rate = 0.004;
    return dlt::SoftmaxTrainer(topts);
  }
};

TEST(ShuffleAccuracyTest, ChunkWiseMatchesDatasetShuffle) {
  Rig rig;

  sim::VirtualClock snap_clock;
  auto snap = rig.dep->server(0).BuildSnapshot(snap_clock, 0, "acc");
  ASSERT_TRUE(snap.ok());

  // Arm A: conventional dataset shuffle, reading through the server.
  dlt::SoftmaxTrainer baseline = rig.MakeTrainer();
  {
    Rng rng(404);
    sim::VirtualClock clock;
    for (size_t epoch = 0; epoch < kEpochs; ++epoch) {
      std::vector<uint32_t> order = shuffle::ShuffleDataset(*snap, rng);
      std::vector<dlt::LabelledSample> ordered;
      ordered.reserve(order.size());
      for (uint32_t idx : order) {
        auto content = rig.dep->server(0).ReadFile(
            clock, 0, "acc", snap->files()[idx].full_name);
        ASSERT_TRUE(content.ok());
        auto s = dlt::SoftmaxTrainer::Decode(content.value());
        ASSERT_TRUE(s.ok());
        ordered.push_back(std::move(s).value());
      }
      baseline.TrainEpoch(ordered);
    }
  }

  // Arm B: chunk-wise shuffle in the memory-constrained mode (§4.3). Each
  // I/O worker (two per node on two nodes) reads its share of the epoch's
  // groups through a group window; the training loop consumes the workers'
  // mini-batches in iteration order.
  dlt::SoftmaxTrainer chunkwise = rig.MakeTrainer();
  {
    constexpr size_t kWorkers = 4;
    constexpr size_t kMinibatch = 32;
    std::vector<std::unique_ptr<shuffle::GroupWindowReader>> readers;
    for (size_t w = 0; w < kWorkers; ++w) {
      readers.push_back(std::make_unique<shuffle::GroupWindowReader>(
          rig.dep->server(0), *snap, static_cast<sim::NodeId>(w % 2)));
    }
    dlt::TrainingPipeline pipeline({.io_workers = kWorkers});
    Rng rng(42);
    Nanos start = 0;
    for (size_t epoch = 0; epoch < kEpochs; ++epoch) {
      shuffle::ShufflePlan plan =
          shuffle::ChunkWiseShuffle(*snap, {.group_size = 4}, rng);
      size_t longest = 0;
      for (size_t w = 0; w < kWorkers; ++w) {
        shuffle::ShufflePlan part = shuffle::PartitionPlan(plan, w, kWorkers);
        longest = std::max(longest, part.file_order.size());
        readers[w]->StartEpoch(std::move(part));
      }
      // Enough rounds for the longest share; a drained worker's batch is
      // empty.
      const size_t iterations =
          kWorkers * ((longest + kMinibatch - 1) / kMinibatch);
      auto result = pipeline.RunEpoch(
          start, iterations, /*shuffle_cost=*/0,
          [&](size_t iter, sim::VirtualClock& clock) -> Status {
            shuffle::GroupWindowReader& reader = *readers[iter % kWorkers];
            std::vector<dlt::LabelledSample> batch;
            while (batch.size() < kMinibatch && !reader.Done()) {
              DIESEL_ASSIGN_OR_RETURN(core::FileSlice file,
                                      reader.Next(clock));
              DIESEL_ASSIGN_OR_RETURN(
                  dlt::LabelledSample s,
                  dlt::SoftmaxTrainer::Decode(file.view()));
              batch.push_back(std::move(s));
            }
            if (!batch.empty()) chunkwise.TrainBatch(batch);
            return Status::Ok();
          });
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      for (const auto& reader : readers) ASSERT_TRUE(reader->Done());
      start = result->epoch_end;
    }
  }

  double base_top1 = baseline.TopKAccuracy(rig.eval, 1);
  double chunk_top1 = chunkwise.TopKAccuracy(rig.eval, 1);
  // Both must have learned something and agree within tolerance (Fig. 13).
  EXPECT_GT(base_top1, 0.5);
  EXPECT_GT(chunk_top1, 0.5);
  EXPECT_NEAR(chunk_top1, base_top1, 0.05);
  EXPECT_NEAR(chunkwise.TopKAccuracy(rig.eval, 5),
              baseline.TopKAccuracy(rig.eval, 5), 0.03);
}

}  // namespace
}  // namespace diesel
