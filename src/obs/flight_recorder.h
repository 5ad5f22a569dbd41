// Always-on flight recorder: a bounded ring of recent trace spans plus
// fault / breaker / membership / migration events, kept cheaply at all times
// so that when a chaos test fails, a circuit breaker opens, or a node
// crashes, the last moments before the incident can be dumped and inspected
// — the black box for a simulation that normally only exports end-of-run
// aggregates.
//
// Events are recorded unconditionally by the fabric, cache, and membership
// layers (they are rare: faults, breaker transitions, membership changes),
// so no tracer needs to be attached for the recorder to have evidence.
// Completed spans are mirrored in only when a Tracer has the recorder
// attached via Tracer::set_flight_recorder.
//
// All timestamps are virtual, so for a fixed seed the dump is byte-stable.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/units.h"

namespace diesel::obs {

struct Span;

enum class FlightEventKind : uint8_t {
  kFault,       // injected drop / flap / latency spike / corruption
  kBreaker,     // circuit breaker open / recover
  kMembership,  // join / drain / crash / recover transitions
  kMigration,   // chunk ownership movement
  kChaos,       // chaos-test lifecycle markers (failure dumps)
  kInfo,        // anything else worth keeping
};

const char* ToString(FlightEventKind kind);

struct FlightEvent {
  uint64_t seq = 0;  // monotonically increasing record number
  Nanos at = 0;      // virtual time of the event
  FlightEventKind kind = FlightEventKind::kInfo;
  std::string what;
  uint64_t span = 0;  // optional owning span id (0 = none)
};

class FlightRecorder {
 public:
  explicit FlightRecorder(size_t event_capacity = 1024,
                          size_t span_capacity = 256);

  /// The process-wide recorder every subsystem records into.
  static FlightRecorder& Default();

  void Record(FlightEventKind kind, Nanos at, std::string what,
              uint64_t span = 0);
  /// Mirror a completed span into the span ring (fed by Tracer when
  /// attached via Tracer::set_flight_recorder).
  void RecordSpan(const Span& span);

  /// Retained events/spans, oldest first.
  std::vector<FlightEvent> events() const;
  uint64_t events_recorded() const;
  uint64_t spans_recorded() const;

  /// Drop everything (fresh run).
  void Clear();

  /// Byte-stable `diesel.flightrec/v1` dump of both rings.
  std::string Json() const;
  Status DumpToFile(const std::string& path) const;

 private:
  mutable std::mutex mutex_;
  size_t event_capacity_;
  size_t span_capacity_;
  uint64_t event_seq_ = 0;
  uint64_t span_seq_ = 0;
  std::vector<FlightEvent> events_;  // ring, oldest first
  // Completed spans, flattened (the full Span type lives in trace.h; the
  // recorder keeps its own compact copy to avoid a circular dependency).
  struct SpanRecord {
    uint64_t seq = 0;
    uint64_t id = 0;
    uint64_t parent = 0;
    std::string name;
    uint32_t node = 0;
    Nanos start = 0;
    Nanos end = 0;
    size_t notes = 0;
  };
  std::vector<SpanRecord> spans_;  // ring, oldest first
};

/// Shorthand for the process-wide recorder.
inline FlightRecorder& Flight() { return FlightRecorder::Default(); }

}  // namespace diesel::obs
