#include "obs/flight_recorder.h"

#include <string>

#include <gtest/gtest.h>

#include "obs/trace.h"
#include "sim/clock.h"

namespace diesel::obs {
namespace {

TEST(FlightRecorderTest, EventRingEvictsOldest) {
  FlightRecorder rec(/*event_capacity=*/4, /*span_capacity=*/2);
  for (int i = 0; i < 6; ++i) {
    rec.Record(FlightEventKind::kFault, i * 10, "ev" + std::to_string(i));
  }
  EXPECT_EQ(rec.events_recorded(), 6u);
  auto events = rec.events();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events.front().seq, 3u);  // the two oldest were evicted
  EXPECT_EQ(events.front().what, "ev2");
  EXPECT_EQ(events.back().seq, 6u);
  EXPECT_EQ(events.back().at, 50);
}

TEST(FlightRecorderTest, SpanRingBounded) {
  FlightRecorder rec(/*event_capacity=*/8, /*span_capacity=*/2);
  Span s;
  for (uint64_t i = 1; i <= 3; ++i) {
    s.id = i;
    s.name = "s" + std::to_string(i);
    rec.RecordSpan(s);
  }
  EXPECT_EQ(rec.spans_recorded(), 3u);
  std::string json = rec.Json();
  EXPECT_EQ(json.find("\"name\": \"s1\""), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"s2\""), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"s3\""), std::string::npos);
}

TEST(FlightRecorderTest, TracerMirrorsCompletedSpans) {
  FlightRecorder rec;
  Tracer tracer;
  tracer.set_flight_recorder(&rec);
  sim::VirtualClock clock;
  {
    ScopedSpan outer(&tracer, "outer", clock, 0);
    clock.Advance(100);
    {
      ScopedSpan inner(&tracer, "inner", clock, 0);
      clock.Advance(50);
    }
    EXPECT_EQ(rec.spans_recorded(), 1u);  // only the closed span is mirrored
  }
  EXPECT_EQ(rec.spans_recorded(), 2u);
  std::string json = rec.Json();
  EXPECT_NE(json.find("\"name\": \"inner\""), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"outer\""), std::string::npos);

  tracer.set_flight_recorder(nullptr);
  {
    ScopedSpan detached(&tracer, "detached", clock, 0);
    clock.Advance(1);
  }
  EXPECT_EQ(rec.spans_recorded(), 2u);
}

TEST(FlightRecorderTest, ClearResetsSequences) {
  FlightRecorder rec;
  auto run = [&rec] {
    rec.Record(FlightEventKind::kFault, 10, "drop n0->n1");
    rec.Record(FlightEventKind::kMembership, 20, "crash: n2", 7);
    return rec.Json();
  };
  std::string first = run();
  rec.Clear();
  EXPECT_EQ(rec.events_recorded(), 0u);
  // Identical event sequences dump byte-identically after a Clear.
  std::string second = run();
  EXPECT_EQ(first, second);
}

TEST(FlightRecorderTest, JsonRecordsKindNamesAndSpanLinks) {
  FlightRecorder rec;
  rec.Record(FlightEventKind::kMigration, 5, "chunk 3: n0 -> n1", 42);
  std::string json = rec.Json();
  EXPECT_NE(json.find("\"kind\": \"migration\""), std::string::npos);
  EXPECT_NE(json.find("\"span\": 42"), std::string::npos);
  EXPECT_NE(json.find("\"events_recorded\": 1"), std::string::npos);
}

}  // namespace
}  // namespace diesel::obs
