// The closed-loop driver every bench and multi-tenant test schedules
// through: sim::DriveEarliestFirst and its fixed-count wrapper
// bench::DriveClosedLoop. Pin the pick rule (earliest clock, lowest index
// on ties), retirement and the makespan.
#include <gtest/gtest.h>

#include <vector>

#include "bench/bench_util.h"
#include "sim/clock.h"
#include "sim/device.h"

namespace diesel {
namespace {

using bench::DriveClosedLoop;

TEST(DriveClosedLoopTest, RunsExactlyOpsPerWorker) {
  std::vector<size_t> counts(5, 0);
  Nanos end = DriveClosedLoop(5, 100, [&](size_t w, sim::VirtualClock& c) {
    ++counts[w];
    c.Advance(10);
  });
  for (size_t w = 0; w < 5; ++w) EXPECT_EQ(counts[w], 100u);
  EXPECT_EQ(end, 1000u);  // each worker independently reaches 100 * 10
}

TEST(DriveClosedLoopTest, SchedulesEarliestClockFirst) {
  // One slow worker, one fast worker: the driver must interleave so that
  // the fast worker gets proportionally more turns early on — equivalently,
  // arrival times at a shared device are globally nondecreasing.
  sim::Device device({.name = "d", .channels = 1, .latency = 1,
                      .bytes_per_sec = 0});
  Nanos last_arrival = 0;
  bool monotonic = true;
  DriveClosedLoop(2, 200, [&](size_t w, sim::VirtualClock& c) {
    if (c.now() < last_arrival) monotonic = false;
    last_arrival = c.now();
    device.Serve(c.now(), 0);
    c.Advance(w == 0 ? 5 : 50);  // worker 0 is 10x faster
  });
  EXPECT_TRUE(monotonic);
}

TEST(DriveClosedLoopTest, MakespanIsSlowestWorker) {
  Nanos end = DriveClosedLoop(3, 10, [&](size_t w, sim::VirtualClock& c) {
    c.Advance((w + 1) * 100);
  });
  EXPECT_EQ(end, 10u * 300u);
}

TEST(DriveClosedLoopTest, StartsAllWorkersAtOffset) {
  Nanos end = DriveClosedLoop(
      2, 3,
      [&](size_t, sim::VirtualClock& c) {
        EXPECT_GE(c.now(), 5000u);
        c.Advance(100);
      },
      5000);
  EXPECT_EQ(end, 5300u);
}

TEST(DriveClosedLoopTest, ZeroWorkIsZeroTime) {
  auto never = [](size_t, sim::VirtualClock&) { FAIL() << "no ops expected"; };
  EXPECT_EQ(DriveClosedLoop(4, 0, never), 0u);  // no ops per worker
  EXPECT_EQ(DriveClosedLoop(0, 5, never), 0u);  // no workers
}

TEST(DriveClosedLoopTest, EqualClocksStepLowestIndexFirst) {
  std::vector<size_t> order;
  DriveClosedLoop(3, 2, [&](size_t w, sim::VirtualClock& c) {
    order.push_back(w);
    c.Advance(10);
  });
  EXPECT_EQ(order, (std::vector<size_t>{0, 1, 2, 0, 1, 2}));
}

TEST(DriveEarliestFirstTest, WorkersStartAtDifferentClocks) {
  // 1 (at 0) and 2 (at 50) go before 0 (at 100); at 100, 0 and 1 tie and
  // 0 goes first. Six ops from a shared budget.
  std::vector<sim::VirtualClock> clocks{
      sim::VirtualClock(100), sim::VirtualClock(0), sim::VirtualClock(50)};
  std::vector<size_t> order;
  Nanos end = sim::DriveEarliestFirst(
      clocks.size(), [&](size_t w) { return clocks[w].now(); },
      [&](size_t w) {
        if (order.size() == 6) return false;
        order.push_back(w);
        clocks[w].Advance(100);
        return true;
      });
  EXPECT_EQ(order, (std::vector<size_t>{1, 2, 0, 1, 2, 0}));
  EXPECT_EQ(end, 300u);
}

TEST(DriveEarliestFirstTest, RetiredWorkerIsNeverSteppedAgain) {
  // Worker 0 has one op of 1 ns and then keeps the earliest clock, yet the
  // driver asks it only once more and never moves its clock again.
  std::vector<sim::VirtualClock> clocks(2);
  std::vector<size_t> calls(2, 0);
  Nanos end = sim::DriveEarliestFirst(
      clocks.size(), [&](size_t w) { return clocks[w].now(); },
      [&](size_t w) {
        if (++calls[w] > (w == 0 ? 1u : 4u)) return false;
        clocks[w].Advance(w == 0 ? 1 : 100);
        return true;
      });
  EXPECT_EQ(calls, (std::vector<size_t>{2, 5}));
  EXPECT_EQ(clocks[0].now(), 1u);
  EXPECT_EQ(end, 400u);
}

}  // namespace
}  // namespace diesel
