// DLT training pipeline timing model (Figs. 14/15).
//
// Mirrors the PyTorch example-code structure: W dataloader workers prefetch
// mini-batches (worker k reads batches k, k+W, k+2W, ... back to back) while
// the GPU consumes them in order. The per-iteration "data access time" is
// what the PyTorch AverageMeter measures: how long the training loop waited
// for the next batch after finishing the previous step. A shuffle stage at
// each epoch start delays all workers, producing the first-iteration spike
// the paper points out in Fig. 14.
#pragma once

#include <functional>
#include <vector>

#include "common/status.h"
#include "sim/calibration.h"
#include "sim/clock.h"

namespace diesel::dlt {

struct PipelineOptions {
  size_t io_workers = 4;
  sim::ModelCompute model = sim::kResNet50;
  /// true: dataloader workers prefetch ahead and data_time measures only the
  /// stall (ideal pipelining). false: each iteration's batch fetch (spread
  /// across the workers) serializes with compute — this matches what the
  /// paper's PyTorch example actually measures in Figs. 14/15, where fetch +
  /// decode/transform time shows up additively in every iteration.
  bool overlap = true;
  /// Called once per epoch at `start + shuffle_cost`, just before the first
  /// batch read — the point where the shuffle plan is fixed and a prefetch
  /// scheduler can install the epoch's access schedule and start filling.
  std::function<Status(Nanos workers_start)> epoch_start_hook{};
};

/// Reads the mini-batch for iteration `iter`, charging `worker_clock` with
/// the full I/O cost (backend-specific; supplied by the experiment).
using BatchReadFn =
    std::function<Status(size_t iter, sim::VirtualClock& worker_clock)>;

/// Stall attribution: every virtual nanosecond between epoch start and
/// `epoch_end` charged to exactly one phase. `fetch` is time the training
/// loop stalled waiting for data, `shuffle` the epoch-start file-list
/// generation, `train` the GPU compute, `other` snapshot/bookkeeping added
/// by the caller. Invariant: Total() == epoch_end - start.
struct PhaseBreakdown {
  Nanos fetch = 0;
  Nanos shuffle = 0;
  Nanos train = 0;
  Nanos other = 0;

  Nanos Total() const { return fetch + shuffle + train + other; }
};

struct EpochResult {
  std::vector<double> data_time_s;  // per-iteration wait for data
  Nanos epoch_end = 0;              // completion of the last compute step
  double total_data_wait_s = 0.0;
  double compute_s = 0.0;
  PhaseBreakdown phases;
};

class TrainingPipeline {
 public:
  explicit TrainingPipeline(PipelineOptions options) : options_(options) {}

  /// Run one epoch of `iterations` steps starting at virtual time `start`.
  /// `shuffle_cost` is charged before any worker begins (file-list
  /// generation). Returns per-iteration data waits, the epoch end time and
  /// the phase breakdown (which also feeds the `dlt.phase.*` histograms).
  Result<EpochResult> RunEpoch(Nanos start, size_t iterations,
                               Nanos shuffle_cost,
                               const BatchReadFn& read_batch) const;

 private:
  PipelineOptions options_;
};

}  // namespace diesel::dlt
