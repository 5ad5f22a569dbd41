// Training pipeline example: a complete DLT task over DIESEL.
//
// A synthetic labelled dataset is ingested through libDIESEL, then a real
// softmax classifier trains for several epochs reading the samples back in
// chunk-wise-shuffle order through the group-window reader (DL_shuffle).
// Per-epoch accuracy and the I/O profile (chunk fetches, window memory) are
// printed, demonstrating the paper's central claim: random training order
// with chunk-sized storage reads and a tiny memory footprint.
//
// Run: ./training_pipeline
#include <cstdio>

#include "core/deployment.h"
#include "dlt/dataset_gen.h"
#include "dlt/trainer.h"
#include "shuffle/group_reader.h"
#include "shuffle/shuffle.h"

using namespace diesel;

int main() {
  constexpr size_t kTrainSamples = 6000;
  constexpr size_t kEvalSamples = 1000;
  constexpr size_t kEpochs = 6;

  dlt::SampleSpec sample_spec;
  sample_spec.num_classes = 10;
  sample_spec.dims = 32;
  sample_spec.separation = 1.6;

  // Ingest the training set (class-sorted, like ImageNet's directory order).
  core::Deployment deployment({});
  auto writer = deployment.MakeClient(0, 0, "train", /*chunk=*/16 * 1024);
  for (size_t i = 0; i < kTrainSamples; ++i) {
    char name[64];
    std::snprintf(name, sizeof(name), "/train/cls%02u/s%05zu.bin",
                  dlt::SampleLabel(sample_spec, i), i);
    if (!writer->Put(name, dlt::MakeSample(sample_spec, i)).ok()) return 1;
  }
  if (!writer->Flush().ok()) return 1;

  auto snapshot = deployment.server(0).BuildSnapshot(writer->clock(), 0,
                                                     "train");
  if (!snapshot.ok()) return 1;
  std::printf("dataset: %zu samples in %zu chunks\n", snapshot->num_files(),
              snapshot->chunks().size());

  // Held-out evaluation set (never stored; generated directly).
  std::vector<dlt::LabelledSample> eval;
  for (size_t i = 0; i < kEvalSamples; ++i) {
    auto s = dlt::SoftmaxTrainer::Decode(
        dlt::MakeSample(sample_spec, kTrainSamples + i));
    if (!s.ok()) return 1;
    eval.push_back(std::move(s).value());
  }

  dlt::TrainerOptions topts;
  topts.num_classes = sample_spec.num_classes;
  topts.dims = sample_spec.dims;
  dlt::SoftmaxTrainer trainer(topts);

  shuffle::GroupWindowReader reader(deployment.server(0), *snapshot, 0);
  Rng rng(2024);
  sim::VirtualClock io_clock;

  std::printf("%-6s %-8s %-8s %-14s %-14s\n", "epoch", "top-1", "top-5",
              "chunk fetches", "window peak");
  for (size_t epoch = 0; epoch < kEpochs; ++epoch) {
    // DL_shuffle: generate this epoch's chunk-wise order.
    reader.StartEpoch(
        shuffle::ChunkWiseShuffle(*snapshot, {.group_size = 8}, rng));
    std::vector<dlt::LabelledSample> batch;
    while (!reader.Done()) {
      auto content = reader.Next(io_clock);
      if (!content.ok()) return 1;
      auto sample = dlt::SoftmaxTrainer::Decode(content->view());
      if (!sample.ok()) return 1;
      batch.push_back(std::move(sample).value());
      if (batch.size() == 32 || reader.Done()) {
        trainer.TrainBatch(batch);
        batch.clear();
      }
    }
    std::printf("%-6zu %-8.3f %-8.3f %-14llu %-14llu\n", epoch + 1,
                trainer.TopKAccuracy(eval, 1), trainer.TopKAccuracy(eval, 5),
                static_cast<unsigned long long>(reader.stats().chunk_fetches),
                static_cast<unsigned long long>(
                    reader.stats().peak_window_bytes));
  }
  std::printf("virtual I/O time for %zu epochs: %.2fs\n", kEpochs,
              ToSeconds(io_clock.now()));
  return 0;
}
