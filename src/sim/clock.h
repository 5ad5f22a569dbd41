// Virtual time.
//
// Every logical worker (a simulated client thread, server executor, I/O
// worker) owns a VirtualClock measured in nanoseconds. Devices advance a
// worker's clock when the worker uses them; workers never advance each
// other's clocks directly. Wall-clock time never enters the simulation, so
// every experiment is deterministic and independent of host load.
#pragma once

#include <algorithm>
#include <cassert>
#include <span>
#include <vector>

#include "common/status.h"
#include "common/units.h"

namespace diesel::sim {

class VirtualClock {
 public:
  VirtualClock() = default;
  explicit VirtualClock(Nanos start) : now_(start) {}

  Nanos now() const { return now_; }

  /// Jump forward to `t` (no-op if `t` is in the past: a device that was
  /// free earlier than the worker arrived completes at the worker's now).
  void AdvanceTo(Nanos t) { now_ = std::max(now_, t); }

  /// Spend `d` of local compute/think time.
  void Advance(Nanos d) { now_ += d; }

  void Reset(Nanos t = 0) { now_ = t; }

 private:
  Nanos now_ = 0;
};

/// The stream that is free earliest (the first on ties). A worker that keeps
/// several requests in flight on parallel streams hands its next request to
/// it (closed loop).
inline VirtualClock& EarliestStream(std::span<VirtualClock> streams) {
  assert(!streams.empty());
  return *std::min_element(streams.begin(), streams.end(),
                           [](const VirtualClock& a, const VirtualClock& b) {
                             return a.now() < b.now();
                           });
}

/// When the last of `streams` is done; they all start at one time, so this
/// is when the whole set of requests on them finishes.
inline Nanos LatestStream(std::span<const VirtualClock> streams) {
  assert(!streams.empty());
  return std::max_element(streams.begin(), streams.end(),
                          [](const VirtualClock& a, const VirtualClock& b) {
                            return a.now() < b.now();
                          })
      ->now();
}

/// Scatter-gather: sub-requests in flight together. Each `Issue(run)` runs
/// one group as `run(sub)` on its own clock `sub`, which starts at the
/// caller's now, and keeps going after a group fails. `Finish()` moves the
/// caller's clock to the slowest group and returns the first failure in
/// issue order.
class ScatterGather {
 public:
  explicit ScatterGather(VirtualClock& clock)
      : clock_(clock), start_(clock.now()), done_(start_) {}

  template <typename Run>
  void Issue(Run&& run) {
    VirtualClock sub(start_);
    Status status = run(sub);
    done_ = std::max(done_, sub.now());
    if (first_failure_.ok()) first_failure_ = std::move(status);
  }

  Status Finish() {
    clock_.AdvanceTo(done_);
    return std::move(first_failure_);
  }

 private:
  VirtualClock& clock_;
  const Nanos start_;
  Nanos done_;
  Status first_failure_;
};

/// Closed-loop driver over `n` workers: steps the worker whose clock is
/// earliest (the lowest index on ties) until every worker has retired. The
/// earliest clock is the next arrival anywhere, so shared devices queue as
/// in a real concurrent run while the run stays single-threaded and
/// deterministic. `clock_of(w)` is worker w's clock now. `step(w)` runs w's
/// next operation and returns true; it returns false, having done nothing,
/// when w has no work left, and w is never stepped again. Every live clock
/// is read afresh before each step, so a step may move any clock. Returns
/// the latest clock over all `n` workers (0 when there are none).
template <typename ClockOf, typename Step>
Nanos DriveEarliestFirst(size_t n, ClockOf&& clock_of, Step&& step) {
  std::vector<bool> live(n, true);
  for (size_t left = n; left > 0;) {
    size_t next = n;
    for (size_t w = 0; w < n; ++w) {
      if (live[w] && (next == n || clock_of(w) < clock_of(next))) next = w;
    }
    if (!step(next)) {
      live[next] = false;
      --left;
    }
  }
  Nanos end = 0;
  for (size_t w = 0; w < n; ++w) end = std::max(end, clock_of(w));
  return end;
}

}  // namespace diesel::sim
