// Retry with capped exponential backoff over virtual time.
//
// Transient faults (node flaps, injected RPC drops, briefly-down KV shards)
// surface as Status::Unavailable. RetryPolicy re-drives the operation with
// exponential backoff and deterministic jitter, charging every wait to the
// caller's VirtualClock — never a wall-clock sleep — so fault runs stay
// bit-reproducible. Only kUnavailable is retried: every other code (NotFound,
// Corruption, Stale, ...) is a semantic answer, not a transient fault.
//
// The paper's own stack behaves this way: §5.1 notes libMemcached's
// timeout/retry/backoff on connection failure (modeled as a latency constant
// in sim/calibration.h); DIESEL's Thrift clients get the equivalent here.
#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>

#include "common/status.h"
#include "common/units.h"
#include "sim/clock.h"

namespace diesel {

struct RetryPolicy {
  /// Each backoff is the previous one times kBackoffMultiplier, capped at
  /// kMaxBackoff, then scaled by a factor drawn from [1 - kJitterFrac,
  /// 1 + kJitterFrac] via a hash of (kJitterSeed, attempt).
  static constexpr double kBackoffMultiplier = 2.0;
  static constexpr Nanos kMaxBackoff = Millis(50);
  static constexpr double kJitterFrac = 0.25;
  static constexpr uint64_t kJitterSeed = 0x9E3779B97F4A7C15ULL;
  /// Virtual-time budget for the whole operation (waits included), measured
  /// from the first attempt. A retry whose backoff would exceed it is not
  /// attempted.
  static constexpr Nanos kDeadlineBudget = Millis(500);

  /// Total tries including the first. <= 1 disables retrying.
  uint32_t max_attempts = 4;
  Nanos initial_backoff = Micros(500);

  /// Backoff charged before retry number `attempt` (1 = first retry).
  Nanos BackoffBefore(uint32_t attempt) const;

  /// Drive `fn` (returning Status or Result<T>) until it succeeds, fails
  /// with a non-transient code, or the policy is exhausted. Backoff waits
  /// advance `clock`; the last outcome is returned.
  template <typename Fn>
  auto Run(sim::VirtualClock& clock, Fn&& fn) const -> decltype(fn()) {
    const Nanos start = clock.now();
    for (uint32_t attempt = 1;; ++attempt) {
      decltype(fn()) r = fn();
      if (!Transient(r)) return r;
      if (attempt >= std::max<uint32_t>(1, max_attempts)) return r;
      Nanos wait = BackoffBefore(attempt);
      if (clock.now() - start + wait > kDeadlineBudget) return r;
      clock.Advance(wait);
    }
  }

 private:
  static bool Transient(const Status& st) { return st.IsUnavailable(); }
  template <typename T>
  static bool Transient(const Result<T>& r) {
    return r.status().IsUnavailable();
  }
};

}  // namespace diesel
