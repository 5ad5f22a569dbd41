// Virtual-time span tracer.
//
// A Tracer records causally-linked spans: one span per logical operation
// (a cache GetFile, an RPC exchange, a KV op), stamped with the owning
// worker's virtual clock at open and close. Parenthood propagates through a
// thread-local context stack, so the synchronous call chain
//   cache.get_file -> rpc:n0->n1 -> server.read_chunk -> kv.mget -> rpc:...
// materializes as one connected tree without any explicit context plumbing:
// each layer opens a ScopedSpan and the fabric's handler runs on the same
// OS thread as the caller.
//
// Because every timestamp is virtual, a deterministic workload (same seed,
// same fault plan) produces a byte-identical dump — the trace plane is
// itself a correctness tool for the fault injector: drops, flaps, latency
// spikes and payload corruption all surface as span annotations.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common/units.h"
#include "sim/clock.h"

namespace diesel::obs {

/// Spans carry the sim::NodeId of the worker that opened them; kNoNode for
/// node-less contexts (admin clocks, tests).
constexpr uint32_t kNoNode = static_cast<uint32_t>(-1);
constexpr uint64_t kNoSpan = 0;

struct SpanNote {
  Nanos at = 0;
  std::string text;
};

struct Span {
  uint64_t id = kNoSpan;      // 1-based; 0 is "no span"
  uint64_t parent = kNoSpan;  // kNoSpan for roots
  std::string name;
  uint32_t node = kNoNode;
  Nanos start = 0;
  Nanos end = 0;
  std::vector<SpanNote> notes;
};

class FlightRecorder;

class Tracer {
 public:
  Tracer() = default;
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Open a span; returns its id. Ids are sequential in open order, so a
  /// deterministic workload numbers spans identically across runs.
  uint64_t Begin(std::string name, Nanos start, uint32_t node,
                 uint64_t parent);
  void End(uint64_t id, Nanos end);
  void Note(uint64_t id, Nanos at, std::string text);

  size_t size() const;
  std::vector<Span> spans() const;
  void Clear();

  /// Innermost open span of this tracer on the calling thread (kNoSpan when
  /// nothing is open) — the trace id that histogram exemplars capture.
  uint64_t CurrentSpanId();

  /// Copy of span `id`; returns false for kNoSpan or ids never issued.
  bool Find(uint64_t id, Span* out) const;

  /// Completed spans are mirrored into `recorder`'s ring (nullptr detaches).
  void set_flight_recorder(FlightRecorder* recorder);

  /// Deterministic tree dump: roots and children ordered by (start, id),
  /// two-space indent per depth, annotations inline.
  std::string TextDump() const;
  /// The tree containing span `id`: walks up to the root, then dumps that
  /// root's subtree in TextDump format. Empty for unknown ids.
  std::string TreeDump(uint64_t id) const;

 private:
  mutable std::mutex mutex_;
  std::vector<Span> spans_;  // spans_[id - 1]
  FlightRecorder* flight_recorder_ = nullptr;
};

/// RAII span bound to a virtual clock: start is stamped at construction and
/// end at destruction, so the span covers however far the operation advanced
/// the clock. A null tracer makes every operation a no-op (pay-for-use, like
/// the fault injector). Non-copyable and tied to scope: spans must close in
/// LIFO order per thread.
class ScopedSpan {
 public:
  ScopedSpan() = default;
  ScopedSpan(Tracer* tracer, std::string name, sim::VirtualClock& clock,
             uint32_t node = kNoNode);
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  bool active() const { return tracer_ != nullptr; }
  uint64_t id() const { return id_; }

  /// Annotate this span at the bound clock's current time.
  void Note(std::string text);
  void NoteAt(Nanos at, std::string text);

  /// Annotate the innermost open span of `tracer` on the calling thread
  /// (no-op when tracer is null or nothing is open) — lets deep layers that
  /// never opened a span (e.g. the corruption injection site) attach fault
  /// evidence to whatever operation is in flight.
  static void NoteCurrent(Tracer* tracer, Nanos at, std::string text);

 private:
  Tracer* tracer_ = nullptr;
  sim::VirtualClock* clock_ = nullptr;
  uint64_t id_ = kNoSpan;
};

}  // namespace diesel::obs
