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

}  // namespace diesel::sim
