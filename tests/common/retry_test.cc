#include "common/retry.h"

#include <gtest/gtest.h>

#include <algorithm>

namespace diesel {
namespace {

TEST(RetryPolicyTest, SucceedsFirstTryWithoutWaiting) {
  RetryPolicy p;
  sim::VirtualClock clock;
  int calls = 0;
  Status st = p.Run(clock, [&] {
    ++calls;
    return Status::Ok();
  });
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(clock.now(), 0u);
}

TEST(RetryPolicyTest, RetriesOnlyUnavailable) {
  RetryPolicy p;
  sim::VirtualClock clock;
  int calls = 0;
  Status st = p.Run(clock, [&] {
    ++calls;
    return Status::NotFound("gone");
  });
  EXPECT_TRUE(st.IsNotFound());
  EXPECT_EQ(calls, 1);  // semantic answer, not a transient fault
  EXPECT_EQ(clock.now(), 0u);
}

TEST(RetryPolicyTest, ExhaustsAttemptsAndChargesVirtualTime) {
  RetryPolicy p;
  p.max_attempts = 3;
  sim::VirtualClock clock;
  int calls = 0;
  Status st = p.Run(clock, [&] {
    ++calls;
    return Status::Unavailable("flap");
  });
  EXPECT_TRUE(st.IsUnavailable());
  EXPECT_EQ(calls, 3);
  // Two backoffs were charged to the caller's virtual clock.
  EXPECT_GE(clock.now(), p.BackoffBefore(1) + p.BackoffBefore(2));
}

TEST(RetryPolicyTest, EventualSuccessAfterTransientFailures) {
  RetryPolicy p;
  sim::VirtualClock clock;
  int calls = 0;
  Result<int> r = p.Run(clock, [&]() -> Result<int> {
    if (++calls < 3) return Status::Unavailable("flap");
    return 42;
  });
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(calls, 3);
  EXPECT_GT(clock.now(), 0u);
}

/// The un-jittered backoff before retry `attempt`:
/// min(initial * 2^(attempt - 1), 50 ms).
double BaseBackoff(const RetryPolicy& p, uint32_t attempt) {
  double base = static_cast<double>(p.initial_backoff);
  for (uint32_t i = 1; i < attempt; ++i) base *= 2.0;
  return std::min(base, static_cast<double>(Millis(50)));
}

/// `wait` lies within +-25% of `base` (1 ns of rounding slack).
void ExpectWithinJitter(Nanos wait, double base) {
  EXPECT_GE(static_cast<double>(wait), base * 0.75 - 1.0);
  EXPECT_LE(static_cast<double>(wait), base * 1.25 + 1.0);
}

TEST(RetryPolicyTest, BackoffGrowsExponentiallyAndCaps) {
  RetryPolicy p;
  p.initial_backoff = Micros(100);
  // 100 us doubling reaches the 50 ms cap at the 11th retry (102.4 ms).
  Nanos prev = 0;
  for (uint32_t attempt = 1; attempt <= 14; ++attempt) {
    const Nanos wait = p.BackoffBefore(attempt);
    ExpectWithinJitter(wait, BaseBackoff(p, attempt));
    // Doubling outruns the jitter band (0.75 * 2 > 1.25) until the cap.
    if (attempt <= 10) {
      EXPECT_GT(wait, prev) << attempt;
    }
    prev = wait;
  }
}

TEST(RetryPolicyTest, JitterIsDeterministicAndBounded) {
  RetryPolicy a, b;
  bool any_jittered = false;
  for (uint32_t attempt = 1; attempt <= 6; ++attempt) {
    const Nanos wa = a.BackoffBefore(attempt);
    EXPECT_EQ(wa, b.BackoffBefore(attempt));  // same seed, same wait
    ExpectWithinJitter(wa, BaseBackoff(a, attempt));
    if (static_cast<double>(wa) != BaseBackoff(a, attempt)) any_jittered = true;
  }
  EXPECT_TRUE(any_jittered);
}

TEST(RetryPolicyTest, DeadlineBudgetStopsRetrying) {
  RetryPolicy p;
  p.max_attempts = 100;
  p.initial_backoff = Millis(10);
  sim::VirtualClock clock;
  uint32_t calls = 0;
  Status st = p.Run(clock, [&] {
    ++calls;
    return Status::Unavailable("down");
  });
  EXPECT_TRUE(st.IsUnavailable());
  // ~10, 20, 40, then 50 ms waits against the 500 ms budget: the run stops
  // well short of max_attempts, within the budget, because the next wait
  // would have crossed it.
  EXPECT_LT(calls, p.max_attempts);
  EXPECT_LE(clock.now(), Millis(500));
  EXPECT_GT(clock.now() + p.BackoffBefore(calls), Millis(500));
  Nanos waited = 0;
  for (uint32_t a = 1; a < calls; ++a) waited += p.BackoffBefore(a);
  EXPECT_EQ(clock.now(), waited);
}

// One loop serves both result shapes: a Status fn and a Result<T> fn that
// fail the same way see the same calls and charge the same clock.
TEST(RetryPolicyTest, RunDrivesStatusAndResultAlike) {
  RetryPolicy p;
  sim::VirtualClock status_clock, result_clock;
  int status_calls = 0, result_calls = 0;
  Status st = p.Run(status_clock, [&]() -> Status {
    if (++status_calls < 3) return Status::Unavailable("flap");
    return Status::Ok();
  });
  Result<int> r = p.Run(result_clock, [&]() -> Result<int> {
    if (++result_calls < 3) return Status::Unavailable("flap");
    return 42;
  });
  EXPECT_TRUE(st.ok());
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(status_calls, 3);
  EXPECT_EQ(result_calls, 3);
  EXPECT_EQ(status_clock.now(), p.BackoffBefore(1) + p.BackoffBefore(2));
  EXPECT_EQ(result_clock.now(), status_clock.now());
}

TEST(RetryPolicyTest, SingleAttemptDisablesRetry) {
  RetryPolicy p;
  p.max_attempts = 1;
  sim::VirtualClock clock;
  int calls = 0;
  Status st = p.Run(clock, [&] {
    ++calls;
    return Status::Unavailable("down");
  });
  EXPECT_TRUE(st.IsUnavailable());
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(clock.now(), 0u);
}

}  // namespace
}  // namespace diesel
