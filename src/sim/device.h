// Queueing device model.
//
// A Device is a resource with `channels` parallel servers, a fixed per-op
// latency, and a per-channel byte bandwidth. Serving a request picks the
// earliest-free channel:
//
//   start = max(request_arrival, channel_free_time)
//   end   = start + latency + bytes / bandwidth
//
// and the worker's virtual clock jumps to `end`. When arrival rate exceeds
// capacity, channel free-times run ahead of arrivals and queueing delay
// emerges — this is what produces the saturation knees in the paper's
// scaling figures (e.g. Fig. 10a metadata QPS flattening).
//
// Resource telemetry: BindMetrics(node) attaches the device to the metrics
// registry under the systematic `node=` label convention. A bound device
// reports per-request queue wait and service time into
// sim.device.queue_wait_ns / sim.device.service_ns histograms plus
// busy-time/ops/bytes counters and busy-window gauges, from which
// obs::ClusterView derives utilization in [0,1] and per-node skew.
// Unbound devices (the default) pay nothing.
//
// Thread-safe: Serve() is mutex-guarded; devices are shared by many logical
// workers running on real threads.
#pragma once

#include <cstdint>
#include <limits>
#include <mutex>
#include <string>
#include <vector>

#include "common/units.h"

namespace diesel::obs {
class Counter;
class Gauge;
class Histo;
}  // namespace diesel::obs

namespace diesel::sim {

struct DeviceSpec {
  std::string name;
  uint32_t channels = 1;
  Nanos latency = 0;             // fixed cost per operation
  double bytes_per_sec = 0.0;    // per-channel bandwidth; 0 = infinite
};

/// Per-request accounting Serve() can report back to the caller: where the
/// request actually ran and how long it queued behind earlier work.
struct ServeStats {
  Nanos start = 0;       // when a channel began serving the request
  Nanos done = 0;        // completion time (== Serve's return value)
  Nanos queue_wait = 0;  // start - arrival; >= 0 by construction
  Nanos service = 0;     // latency + transfer + extra
};

class Device {
 public:
  explicit Device(DeviceSpec spec);

  /// Service time for `bytes` excluding queueing (latency + transfer).
  Nanos ServiceTime(uint64_t bytes) const;

  /// Serve a request arriving at `now` with an extra fixed cost (e.g.
  /// op-specific CPU work); returns completion time. When `out` is set it
  /// receives the request's queueing accounting.
  Nanos Serve(Nanos now, uint64_t bytes, Nanos extra = 0,
              ServeStats* out = nullptr);

  const DeviceSpec& spec() const { return spec_; }

  /// Publish this device's telemetry into the process-wide metrics registry
  /// as sim.device.*{device=<spec.name>,node=<node>}. Idempotent; binding
  /// again with a different node label re-points the handles. The `node`
  /// label follows the cluster convention "n<id>" so obs::ClusterView can
  /// roll devices up per node.
  void BindMetrics(const std::string& node);
  bool metrics_bound() const;

  /// Total operations served (monotonic; for stats/tests).
  uint64_t ops_served() const;
  /// Total bytes moved.
  uint64_t bytes_served() const;
  /// Total busy time summed over channels.
  Nanos busy_time() const;
  /// Times Insert() hit the kMaxIntervals cap and conservatively collapsed
  /// the oldest idle gap into busy time (skews backfill accounting; exported
  /// as sim.device.intervals_collapsed when bound).
  uint64_t intervals_collapsed() const;

  /// Forget all queue state (start of a new experiment repetition).
  void Reset();

 private:
  struct Interval {
    Nanos start;
    Nanos end;
  };
  /// busy[head..] are the live intervals: sorted by start and disjoint, so
  /// their ends are sorted too. busy[0..head) were collapsed away and are
  /// dropped in one compaction once head reaches kMaxIntervals.
  struct Channel {
    std::vector<Interval> busy;
    size_t head = 0;
  };

  /// Registry handles, resolved once by BindMetrics so the per-request cost
  /// is two histogram observes and a few relaxed counter increments.
  struct Metrics {
    obs::Histo* queue_wait_ns;
    obs::Histo* service_ns;
    obs::Counter* busy_ns;
    obs::Counter* ops;
    obs::Counter* bytes;
    obs::Counter* intervals_collapsed;
    obs::Gauge* channels;
    obs::Gauge* busy_start_ns;  // earliest service start observed
    obs::Gauge* busy_end_ns;    // latest completion observed
  };

  static constexpr size_t kMaxIntervals = 4096;

  /// Earliest start >= now with an idle gap of length `dur` on `ch`.
  static Nanos EarliestFit(const Channel& ch, Nanos now, Nanos dur);
  size_t Insert(Channel& ch, Nanos start, Nanos end);

  DeviceSpec spec_;
  mutable std::mutex mutex_;
  std::vector<Channel> channels_;
  uint64_t ops_ = 0;
  uint64_t bytes_ = 0;
  Nanos busy_ = 0;
  uint64_t intervals_collapsed_ = 0;
  bool seen_start_ = false;
  Nanos first_start_ = 0;
  Nanos last_end_ = 0;
  Metrics metrics_{};
  bool bound_ = false;
};

}  // namespace diesel::sim
