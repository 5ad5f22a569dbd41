#include "obs/trace.h"

#include <string>
#include <thread>

#include <gtest/gtest.h>

#include "net/fabric.h"
#include "net/fault_injector.h"
#include "obs/metrics.h"
#include "sim/clock.h"
#include "sim/node.h"

namespace diesel::obs {
namespace {

TEST(TracerTest, ScopedSpanStampsVirtualTimes) {
  Tracer tracer;
  sim::VirtualClock clock;
  {
    ScopedSpan outer(&tracer, "outer", clock, 0);
    clock.Advance(100);
    outer.Note("midpoint");
    clock.Advance(50);
  }
  ASSERT_EQ(tracer.size(), 1u);
  Span s = tracer.spans()[0];
  EXPECT_EQ(s.name, "outer");
  EXPECT_EQ(s.start, 0u);
  EXPECT_EQ(s.end, 150u);
  ASSERT_EQ(s.notes.size(), 1u);
  EXPECT_EQ(s.notes[0].at, 100u);
  EXPECT_EQ(s.notes[0].text, "midpoint");
}

TEST(TracerTest, NullTracerIsNoOp) {
  sim::VirtualClock clock;
  ScopedSpan span(nullptr, "ignored", clock, 0);
  EXPECT_FALSE(span.active());
  span.Note("dropped");
  ScopedSpan::NoteCurrent(nullptr, 0, "dropped");
}

TEST(TracerTest, NestedScopesFormOneTree) {
  Tracer tracer;
  sim::VirtualClock clock;
  {
    ScopedSpan a(&tracer, "a", clock, 0);
    clock.Advance(10);
    {
      ScopedSpan b(&tracer, "b", clock, 1);
      clock.Advance(10);
      ScopedSpan c(&tracer, "c", clock, 2);
      clock.Advance(10);
    }
    ScopedSpan d(&tracer, "d", clock, 0);
    clock.Advance(10);
  }
  auto spans = tracer.spans();
  ASSERT_EQ(spans.size(), 4u);
  EXPECT_EQ(spans[0].parent, kNoSpan);        // a
  EXPECT_EQ(spans[1].parent, spans[0].id);    // b under a
  EXPECT_EQ(spans[2].parent, spans[1].id);    // c under b
  EXPECT_EQ(spans[3].parent, spans[0].id);    // d under a (b closed)
}

TEST(TracerTest, IndependentTracersDoNotAdoptEachOther) {
  Tracer t1;
  Tracer t2;
  sim::VirtualClock clock;
  ScopedSpan a(&t1, "a", clock, 0);
  ScopedSpan b(&t2, "b", clock, 0);
  EXPECT_EQ(t1.spans()[0].parent, kNoSpan);
  EXPECT_EQ(t2.spans()[0].parent, kNoSpan);
}

// A three-hop synchronous RPC chain n0 -> n1 -> n2 -> n3 through the fabric
// must come out as one connected span tree whose rpc spans nest in call
// order, with each span's interval containing its child's.
TEST(TracerTest, ThreeHopRpcChainIsOneConnectedTree) {
  sim::Cluster cluster(4);
  net::Fabric fabric(cluster);
  Tracer tracer;
  fabric.set_tracer(&tracer);

  sim::VirtualClock clock;
  {
    ScopedSpan root(&tracer, "workload.op", clock, 0);
    Status st = fabric.Call(clock, 0, 1, 128, 64, [&](Nanos arrival1) {
      sim::VirtualClock c1(arrival1);
      Status inner1 = fabric.Call(c1, 1, 2, 128, 64, [&](Nanos arrival2) {
        sim::VirtualClock c2(arrival2);
        Status inner2 = fabric.Call(c2, 2, 3, 128, 64, [&](Nanos arrival3) {
          return arrival3 + 1000;  // leaf server work
        });
        EXPECT_TRUE(inner2.ok());
        return c2.now();
      });
      EXPECT_TRUE(inner1.ok());
      return c1.now();
    });
    EXPECT_TRUE(st.ok());
  }

  auto spans = tracer.spans();
  ASSERT_EQ(spans.size(), 4u);  // root + 3 rpc spans
  EXPECT_EQ(spans[0].name, "workload.op");
  EXPECT_EQ(spans[1].name, "rpc:node0->node1");
  EXPECT_EQ(spans[2].name, "rpc:node1->node2");
  EXPECT_EQ(spans[3].name, "rpc:node2->node3");
  // One connected chain: each rpc span is the child of the previous hop.
  EXPECT_EQ(spans[1].parent, spans[0].id);
  EXPECT_EQ(spans[2].parent, spans[1].id);
  EXPECT_EQ(spans[3].parent, spans[2].id);
  // Interval containment along the chain.
  for (size_t i = 1; i < spans.size(); ++i) {
    EXPECT_GE(spans[i].start, spans[i - 1].start);
    EXPECT_LE(spans[i].end, spans[i - 1].end)
        << spans[i].name << " must finish within " << spans[i - 1].name;
  }
  fabric.set_tracer(nullptr);
}

std::string RunSeededFaultWorkload(uint64_t seed) {
  sim::Cluster cluster(2);
  net::Fabric fabric(cluster);
  net::FaultPlan plan;
  plan.seed = seed;
  plan.rpc_drop_prob = 0.2;
  net::FaultInjector injector(plan);
  fabric.set_fault_injector(&injector);
  Tracer tracer;
  fabric.set_tracer(&tracer);

  sim::VirtualClock clock;
  for (int i = 0; i < 50; ++i) {
    (void)fabric.Call(clock, 0, 1, 256, 64,
                      [&](Nanos arrival) { return arrival + 500; });
  }
  return tracer.TextDump();
}

TEST(TracerTest, SameSeedProducesByteIdenticalDumpWithFaultAnnotations) {
  std::string first = RunSeededFaultWorkload(7);
  std::string second = RunSeededFaultWorkload(7);
  EXPECT_EQ(first, second);
  // At 20% drop probability over 50 calls, the dump must show drops.
  EXPECT_NE(first.find("fault.drop"), std::string::npos);
  // A different seed lands drops elsewhere.
  EXPECT_NE(first, RunSeededFaultWorkload(8));
}

TEST(TracerTest, TextDumpShowsTreeAndNotes) {
  Tracer tracer;
  sim::VirtualClock clock;
  {
    ScopedSpan a(&tracer, "parent", clock, 0);
    clock.Advance(10);
    {
      ScopedSpan b(&tracer, "child", clock, 1);
      b.Note("hello");
      clock.Advance(5);
    }
  }
  std::string dump = tracer.TextDump();
  EXPECT_NE(dump.find("[0..15ns] parent @n0"), std::string::npos);
  EXPECT_NE(dump.find("  [10..15ns] child @n1"), std::string::npos);
  EXPECT_NE(dump.find("    ! at=10ns hello"), std::string::npos);
}

TEST(TracerTest, JsonDumpListsSpansInIdOrder) {
  Tracer tracer;
  sim::VirtualClock clock;
  {
    ScopedSpan a(&tracer, "a", clock, 0);
    ScopedSpan b(&tracer, "b", clock, 1);
  }
  std::string json = tracer.JsonDump();
  EXPECT_LT(json.find("\"name\": \"a\""), json.find("\"name\": \"b\""));
  EXPECT_NE(json.find("\"id\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"parent\": 1"), std::string::npos);
}

TEST(TracerTest, SpanOnAnotherThreadIsARoot) {
  // The open-span stack is per thread: a span opened on a fresh thread
  // does not adopt a span still open on the thread that started it.
  Tracer tracer;
  sim::VirtualClock clock;
  {
    ScopedSpan parent(&tracer, "parent", clock, 0);
    std::thread([&tracer] {
      sim::VirtualClock thread_clock;
      ScopedSpan s(&tracer, "other.thread", thread_clock, 1);
    }).join();
  }
  auto spans = tracer.spans();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[1].name, "other.thread");
  EXPECT_EQ(spans[1].parent, kNoSpan);
}

TEST(TracerTest, NoteCurrentAttachesToInnermostOpenSpan) {
  Tracer tracer;
  sim::VirtualClock clock;
  {
    ScopedSpan outer(&tracer, "outer", clock, 0);
    {
      ScopedSpan inner(&tracer, "inner", clock, 0);
      ScopedSpan::NoteCurrent(&tracer, 42, "fault.corrupt chunk=3");
    }
  }
  auto spans = tracer.spans();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_TRUE(spans[0].notes.empty());
  ASSERT_EQ(spans[1].notes.size(), 1u);
  EXPECT_EQ(spans[1].notes[0].text, "fault.corrupt chunk=3");
  EXPECT_EQ(spans[1].notes[0].at, 42u);
}

}  // namespace
}  // namespace diesel::obs
