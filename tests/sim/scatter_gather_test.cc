// sim::ScatterGather, the fan-out rule of the batched read paths
// (KvCluster::MGet, TaskCache::GetFiles): every group starts at the
// caller's now, every group is issued even after one fails, the first
// failure in issue order is returned, and the caller resumes at the
// slowest group.
#include <gtest/gtest.h>

#include <vector>

#include "sim/clock.h"

namespace diesel {
namespace {

TEST(ScatterGatherTest, GroupsStartAtCallersNowAndCallerResumesAtSlowest) {
  sim::VirtualClock clock(1000);
  sim::ScatterGather fan(clock);
  std::vector<Nanos> starts;
  for (Nanos cost : {30, 500, 70}) {
    fan.Issue([&](sim::VirtualClock& sub) {
      starts.push_back(sub.now());
      sub.Advance(cost);
      return Status::Ok();
    });
  }
  // The caller stays put until Finish.
  EXPECT_EQ(clock.now(), 1000u);
  EXPECT_TRUE(fan.Finish().ok());
  EXPECT_EQ(starts, (std::vector<Nanos>{1000, 1000, 1000}));
  EXPECT_EQ(clock.now(), 1500u);
}

TEST(ScatterGatherTest, FirstFailureInIssueOrderWinsAndSlowestGroupSetsClock) {
  sim::VirtualClock clock(0);
  sim::ScatterGather fan(clock);
  fan.Issue([](sim::VirtualClock& sub) {
    sub.Advance(10);
    return Status::Ok();
  });
  fan.Issue([](sim::VirtualClock& sub) {
    sub.Advance(10);
    return Status::Unavailable("first");
  });
  fan.Issue([](sim::VirtualClock& sub) {
    sub.Advance(10);
    return Status::NotFound("second");
  });
  // A later, slower group that succeeds: the failures before it neither
  // stop it nor keep the caller from waiting for it.
  fan.Issue([](sim::VirtualClock& sub) {
    sub.Advance(900);
    return Status::Ok();
  });
  Status st = fan.Finish();
  EXPECT_TRUE(st.IsUnavailable()) << st.ToString();
  EXPECT_EQ(st.message(), "first");
  EXPECT_EQ(clock.now(), 900u);
}

TEST(ScatterGatherTest, NoGroupsLeavesTheClock) {
  sim::VirtualClock clock(42);
  sim::ScatterGather fan(clock);
  EXPECT_TRUE(fan.Finish().ok());
  EXPECT_EQ(clock.now(), 42u);
}

TEST(ScatterGatherTest, NeverMovesTheCallerBack) {
  // A group that does no work ends where it started, at the caller's now.
  sim::VirtualClock clock(7);
  sim::ScatterGather fan(clock);
  fan.Issue([](sim::VirtualClock&) { return Status::Ok(); });
  EXPECT_TRUE(fan.Finish().ok());
  EXPECT_EQ(clock.now(), 7u);
}

}  // namespace
}  // namespace diesel
