#include "dlt/pipeline.h"

#include <algorithm>

#include "obs/metrics.h"

namespace diesel::dlt {
namespace {

// Publish one epoch's stall attribution. Histograms (ns per epoch) give the
// cross-epoch distribution; the counter counts epochs so reports can
// normalize.
void PublishPhases(const PhaseBreakdown& phases) {
  auto& m = obs::Metrics();
  m.GetHistogram("dlt.phase.fetch_ns").Observe(static_cast<double>(phases.fetch));
  m.GetHistogram("dlt.phase.shuffle_ns")
      .Observe(static_cast<double>(phases.shuffle));
  m.GetHistogram("dlt.phase.train_ns").Observe(static_cast<double>(phases.train));
  m.GetHistogram("dlt.phase.other_ns").Observe(static_cast<double>(phases.other));
  m.GetCounter("dlt.epochs").Inc();
}

}  // namespace

Result<EpochResult> TrainingPipeline::RunEpoch(
    Nanos start, size_t iterations, Nanos shuffle_cost,
    const BatchReadFn& read_batch) const {
  EpochResult result;
  result.data_time_s.reserve(iterations);
  result.phases.shuffle = shuffle_cost;

  const size_t W = std::max<size_t>(1, options_.io_workers);

  if (options_.epoch_start_hook) {
    DIESEL_RETURN_IF_ERROR(options_.epoch_start_hook(start + shuffle_cost));
  }

  if (!options_.overlap) {
    // Serialized fetch: each iteration reads its batch (parallelized across
    // the W workers, approximated as fetch/W) and only then computes.
    Nanos t = start + shuffle_cost;
    for (size_t i = 0; i < iterations; ++i) {
      sim::VirtualClock scratch(t);
      DIESEL_RETURN_IF_ERROR(read_batch(i, scratch));
      Nanos fetch = (scratch.now() - t) / W;
      Nanos wait = fetch + (i == 0 ? shuffle_cost : 0);
      result.data_time_s.push_back(ToSeconds(wait));
      result.total_data_wait_s += ToSeconds(wait);
      t += fetch + options_.model.iter_compute;
      result.compute_s += ToSeconds(options_.model.iter_compute);
      result.phases.fetch += fetch;
      result.phases.train += options_.model.iter_compute;
    }
    result.epoch_end = t;
    PublishPhases(result.phases);
    return result;
  }
  std::vector<sim::VirtualClock> workers(W,
                                         sim::VirtualClock(start + shuffle_cost));
  std::vector<Nanos> ready(iterations, 0);

  // Workers prefetch their assigned batches back to back.
  for (size_t i = 0; i < iterations; ++i) {
    sim::VirtualClock& w = workers[i % W];
    DIESEL_RETURN_IF_ERROR(read_batch(i, w));
    ready[i] = w.now();
  }

  // The training loop consumes batches in order.
  Nanos compute_free = start + shuffle_cost;
  for (size_t i = 0; i < iterations; ++i) {
    Nanos wait = ready[i] > compute_free ? ready[i] - compute_free : 0;
    // The wait is a genuine timeline stall, charged to the fetch phase; the
    // i == 0 shuffle add below is reporting-only (Fig. 14's first-iteration
    // spike) and already covered by the shuffle phase.
    result.phases.fetch += wait;
    // The epoch-start shuffle shows up in iteration 0's data time, as in
    // Fig. 14 ("the average data access time goes up in the first iteration
    // of each epoch").
    if (i == 0) wait += shuffle_cost;
    result.data_time_s.push_back(ToSeconds(wait));
    result.total_data_wait_s += ToSeconds(wait);
    Nanos begin = std::max(ready[i], compute_free);
    compute_free = begin + options_.model.iter_compute;
    result.compute_s += ToSeconds(options_.model.iter_compute);
    result.phases.train += options_.model.iter_compute;
  }
  result.epoch_end = compute_free;
  PublishPhases(result.phases);
  return result;
}

}  // namespace diesel::dlt
