#include "net/fault_injector.h"

#include <gtest/gtest.h>

#include "net/fabric.h"
#include "sim/node.h"

namespace diesel::net {
namespace {

sim::Cluster MakeCluster(size_t n) { return sim::Cluster(n); }

TEST(FaultInjectorTest, NodeFlapWindowIsExact) {
  FaultPlan plan;
  plan.node_flaps.push_back({.node = 2, .down_at = Millis(10),
                             .up_at = Millis(20)});
  FaultInjector inj(plan);
  EXPECT_FALSE(inj.NodeDown(2, Millis(9)));
  EXPECT_TRUE(inj.NodeDown(2, Millis(10)));
  EXPECT_TRUE(inj.NodeDown(2, Millis(19)));
  EXPECT_FALSE(inj.NodeDown(2, Millis(20)));  // auto-recovered
  EXPECT_FALSE(inj.NodeDown(1, Millis(15)));  // other nodes unaffected
}

TEST(FaultInjectorTest, DropDecisionIsPureFunctionOfSeedAndTime) {
  FaultPlan plan;
  plan.seed = 42;
  plan.rpc_drop_prob = 0.5;
  FaultInjector a(plan), b(plan);
  for (Nanos t = 0; t < Micros(100); t += Micros(1)) {
    EXPECT_EQ(a.ShouldDropRpc(0, 1, t), b.ShouldDropRpc(0, 1, t));
  }
  EXPECT_EQ(a.stats().rpc_drops, b.stats().rpc_drops);
  EXPECT_GT(a.stats().rpc_drops, 20u);  // ~50 of 100 rolls
  EXPECT_LT(a.stats().rpc_drops, 80u);
}

TEST(FaultInjectorTest, DifferentSeedsRollDifferently) {
  FaultPlan pa, pb;
  pa.seed = 1;
  pb.seed = 2;
  pa.rpc_drop_prob = pb.rpc_drop_prob = 0.5;
  FaultInjector a(pa), b(pb);
  int differ = 0;
  for (Nanos t = 0; t < Micros(100); t += Micros(1)) {
    if (a.ShouldDropRpc(0, 1, t) != b.ShouldDropRpc(0, 1, t)) ++differ;
  }
  EXPECT_GT(differ, 0);
}

TEST(FaultInjectorTest, LatencySpikesSumOverOverlappingWindows) {
  FaultPlan plan;
  plan.latency_spikes.push_back(
      {.start = Millis(1), .end = Millis(3), .extra = Micros(10)});
  plan.latency_spikes.push_back(
      {.start = Millis(2), .end = Millis(4), .extra = Micros(5)});
  FaultInjector inj(plan);
  EXPECT_EQ(inj.ExtraLatency(0), 0u);
  EXPECT_EQ(inj.ExtraLatency(Millis(1)), Micros(10));
  EXPECT_EQ(inj.ExtraLatency(Millis(2)), Micros(15));
  EXPECT_EQ(inj.ExtraLatency(Millis(3)), Micros(5));
  EXPECT_EQ(inj.ExtraLatency(Millis(4)), 0u);
  EXPECT_EQ(inj.stats().latency_spike_hits, 3u);
}

TEST(FaultInjectorTest, ChunkCorruptionIsOneShotPerEntry) {
  FaultPlan plan;
  plan.corrupt_chunk_fetches = {7, 7, 9};
  FaultInjector inj(plan);
  EXPECT_TRUE(inj.ConsumeChunkCorruption(7));
  EXPECT_TRUE(inj.ConsumeChunkCorruption(7));   // second entry for 7
  EXPECT_FALSE(inj.ConsumeChunkCorruption(7));  // both consumed
  EXPECT_FALSE(inj.ConsumeChunkCorruption(8));
  EXPECT_TRUE(inj.ConsumeChunkCorruption(9));
  EXPECT_EQ(inj.stats().corruptions_injected, 3u);
}

TEST(FaultInjectorTest, CorruptPayloadFlipsExactlyOnePayloadByte) {
  FaultPlan plan;
  FaultInjector inj(plan);
  Bytes blob(256, 0xCC);
  Bytes orig = blob;
  inj.CorruptPayload(blob, /*header_len=*/64, /*chunk_index=*/3);
  size_t diffs = 0, first_diff = 0;
  for (size_t i = 0; i < blob.size(); ++i) {
    if (blob[i] != orig[i]) {
      ++diffs;
      first_diff = i;
    }
  }
  EXPECT_EQ(diffs, 1u);
  EXPECT_GE(first_diff, 64u);  // header is never touched
  // Deterministic: the same call flips the same byte again (restoring it).
  inj.CorruptPayload(blob, 64, 3);
  EXPECT_EQ(blob, orig);
}

TEST(FaultInjectorTest, FireFlapsInvokesCallbackOncePerFlap) {
  FaultPlan plan;
  plan.node_flaps.push_back({.node = 1, .down_at = Millis(5),
                             .up_at = Millis(6)});
  plan.node_flaps.push_back({.node = 2, .down_at = Millis(7),
                             .up_at = Millis(9)});
  FaultInjector inj(plan);
  std::vector<sim::NodeId> fired;
  auto record = [&](sim::NodeId n) { fired.push_back(n); };
  inj.FireFlaps(Millis(4), record);
  EXPECT_TRUE(fired.empty());
  inj.FireFlaps(Millis(5), record);
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0], 1u);
  inj.FireFlaps(Millis(5), record);  // already fired: no repeat
  EXPECT_EQ(fired.size(), 1u);
  inj.FireFlaps(Millis(10), record);  // second flap (even if window passed)
  ASSERT_EQ(fired.size(), 2u);
  EXPECT_EQ(fired[1], 2u);
  EXPECT_EQ(inj.stats().flaps_fired, 2u);
}

TEST(FaultInjectorTest, FabricRejectsCallsTouchingFlappedNode) {
  sim::Cluster cluster = MakeCluster(3);
  Fabric fabric(cluster);
  FaultPlan plan;
  plan.node_flaps.push_back({.node = 1, .down_at = Millis(1),
                             .up_at = Millis(10)});
  plan.fault_detect_timeout = Millis(2);
  FaultInjector inj(plan);
  fabric.set_fault_injector(&inj);

  auto noop = [](Nanos arrival) { return arrival; };
  sim::VirtualClock clock;
  // Before the flap: calls pass.
  ASSERT_TRUE(fabric.Call(clock, 0, 1, 64, 64, noop).ok());
  EXPECT_TRUE(fabric.NodeAvailable(1, clock.now()));
  clock.AdvanceTo(Millis(1));
  EXPECT_FALSE(fabric.NodeAvailable(1, clock.now()));
  Nanos before = clock.now();
  Status st = fabric.Call(clock, 0, 1, 64, 64, noop);
  EXPECT_TRUE(st.IsUnavailable());
  // Caller paid the detection timeout in virtual time.
  EXPECT_EQ(clock.now(), before + Millis(2));
  // Source-side flap is rejected too.
  EXPECT_TRUE(fabric.Call(clock, 1, 2, 64, 64, noop).IsUnavailable());
  // After the window the node auto-recovers.
  clock.AdvanceTo(Millis(10));
  EXPECT_TRUE(fabric.NodeAvailable(1, clock.now()));
  EXPECT_TRUE(fabric.Call(clock, 0, 1, 64, 64, noop).ok());
  EXPECT_GE(inj.stats().down_node_rejections, 2u);
}

TEST(FaultInjectorTest, FlapTearsDownNodeConnections) {
  sim::Cluster cluster = MakeCluster(3);
  Fabric fabric(cluster);
  fabric.connections().Connect({0, 0}, {1, 0});
  fabric.connections().Connect({1, 0}, {2, 0});
  fabric.connections().Connect({0, 0}, {2, 0});
  FaultPlan plan;
  plan.node_flaps.push_back({.node = 1, .down_at = Millis(1),
                             .up_at = Millis(2)});
  FaultInjector inj(plan);
  fabric.set_fault_injector(&inj);
  sim::VirtualClock clock(Millis(1));
  auto noop = [](Nanos arrival) { return arrival; };
  (void)fabric.Call(clock, 0, 2, 64, 64, noop);  // fires the due flap
  EXPECT_EQ(fabric.connections().TotalConnections(), 1u);
  EXPECT_TRUE(fabric.connections().Connected({0, 0}, {2, 0}));
}

TEST(FaultInjectorTest, InjectedDropChargesDetectionTimeout) {
  sim::Cluster cluster = MakeCluster(2);
  Fabric fabric(cluster);
  FaultPlan plan;
  plan.rpc_drop_prob = 1.0;
  plan.fault_detect_timeout = Millis(3);
  FaultInjector inj(plan);
  fabric.set_fault_injector(&inj);
  sim::VirtualClock clock;
  auto noop = [](Nanos arrival) { return arrival; };
  EXPECT_TRUE(fabric.Call(clock, 0, 1, 64, 64, noop).IsUnavailable());
  EXPECT_EQ(clock.now(), Millis(3));
  // Loopback is exempt from drops.
  EXPECT_TRUE(fabric.Call(clock, 0, 0, 64, 64, noop).ok());
  EXPECT_EQ(inj.stats().rpc_drops, 1u);
}

TEST(FaultInjectorTest, LatencySpikeSlowsCallsDuringWindowOnly) {
  sim::Cluster cluster = MakeCluster(2);
  Fabric fabric(cluster);
  auto noop = [](Nanos arrival) { return arrival; };
  // Baseline without injector.
  sim::VirtualClock base;
  ASSERT_TRUE(fabric.Call(base, 0, 1, 64, 64, noop).ok());
  Nanos plain_cost = base.now();

  FaultPlan plan;
  plan.latency_spikes.push_back(
      {.start = 0, .end = Millis(1), .extra = Micros(500)});
  FaultInjector inj(plan);
  fabric.set_fault_injector(&inj);
  cluster.ResetDevices();
  sim::VirtualClock spiked;
  ASSERT_TRUE(fabric.Call(spiked, 0, 1, 64, 64, noop).ok());
  // Two wire traversals, each 500us slower.
  EXPECT_EQ(spiked.now(), plain_cost + 2 * Micros(500));

  cluster.ResetDevices();
  sim::VirtualClock after(Millis(2));
  ASSERT_TRUE(fabric.Call(after, 0, 1, 64, 64, noop).ok());
  EXPECT_EQ(after.now() - Millis(2), plain_cost);
}

TEST(FaultInjectorTest, DetachedInjectorRestoresPlainBehavior) {
  sim::Cluster cluster = MakeCluster(2);
  Fabric fabric(cluster);
  auto noop = [](Nanos arrival) { return arrival; };
  sim::VirtualClock base;
  ASSERT_TRUE(fabric.Call(base, 0, 1, 64, 64, noop).ok());

  FaultPlan plan;
  plan.rpc_drop_prob = 1.0;
  FaultInjector inj(plan);
  fabric.set_fault_injector(&inj);
  sim::VirtualClock faulted;
  EXPECT_TRUE(fabric.Call(faulted, 0, 1, 64, 64, noop).IsUnavailable());

  fabric.set_fault_injector(nullptr);
  cluster.ResetDevices();
  sim::VirtualClock restored;
  ASSERT_TRUE(fabric.Call(restored, 0, 1, 64, 64, noop).ok());
  EXPECT_EQ(restored.now(), base.now());
}

}  // namespace
}  // namespace diesel::net
