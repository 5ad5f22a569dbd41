#include "obs/flight_recorder.h"

#include <fstream>

#include "obs/trace.h"

namespace diesel::obs {
namespace {

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default: out += c;
    }
  }
  return out;
}

}  // namespace

const char* ToString(FlightEventKind kind) {
  switch (kind) {
    case FlightEventKind::kFault: return "fault";
    case FlightEventKind::kBreaker: return "breaker";
    case FlightEventKind::kMembership: return "membership";
    case FlightEventKind::kMigration: return "migration";
    case FlightEventKind::kChaos: return "chaos";
    case FlightEventKind::kInfo: return "info";
  }
  return "?";
}

FlightRecorder::FlightRecorder(size_t event_capacity, size_t span_capacity)
    : event_capacity_(event_capacity), span_capacity_(span_capacity) {}

FlightRecorder& FlightRecorder::Default() {
  // Leaked: subsystems record from static-destructor-unsafe contexts.
  static FlightRecorder* recorder = new FlightRecorder();
  return *recorder;
}

void FlightRecorder::Record(FlightEventKind kind, Nanos at, std::string what,
                            uint64_t span) {
  std::lock_guard<std::mutex> lock(mutex_);
  FlightEvent ev;
  ev.seq = ++event_seq_;
  ev.at = at;
  ev.kind = kind;
  ev.what = std::move(what);
  ev.span = span;
  events_.push_back(std::move(ev));
  if (events_.size() > event_capacity_) {
    events_.erase(events_.begin(),
                  events_.begin() +
                      static_cast<long>(events_.size() - event_capacity_));
  }
}

void FlightRecorder::RecordSpan(const Span& span) {
  std::lock_guard<std::mutex> lock(mutex_);
  SpanRecord rec;
  rec.seq = ++span_seq_;
  rec.id = span.id;
  rec.parent = span.parent;
  rec.name = span.name;
  rec.node = span.node;
  rec.start = span.start;
  rec.end = span.end;
  rec.notes = span.notes.size();
  spans_.push_back(std::move(rec));
  if (spans_.size() > span_capacity_) {
    spans_.erase(spans_.begin(),
                 spans_.begin() +
                     static_cast<long>(spans_.size() - span_capacity_));
  }
}

std::vector<FlightEvent> FlightRecorder::events() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return events_;
}

uint64_t FlightRecorder::events_recorded() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return event_seq_;
}

uint64_t FlightRecorder::spans_recorded() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return span_seq_;
}

void FlightRecorder::Clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  events_.clear();
  spans_.clear();
  event_seq_ = 0;
  span_seq_ = 0;
}

std::string FlightRecorder::Json() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::string out = "{\n  \"schema\": \"diesel.flightrec/v1\",\n";
  out += "  \"events_recorded\": " + std::to_string(event_seq_) + ",\n";
  out += "  \"spans_recorded\": " + std::to_string(span_seq_) + ",\n";
  out += "  \"events\": [";
  for (size_t i = 0; i < events_.size(); ++i) {
    const FlightEvent& ev = events_[i];
    out += i == 0 ? "\n" : ",\n";
    out += "    {\"seq\": " + std::to_string(ev.seq) +
           ", \"at\": " + std::to_string(ev.at) + ", \"kind\": \"" +
           ToString(ev.kind) + "\", \"what\": \"" + JsonEscape(ev.what) + "\"";
    if (ev.span != 0) out += ", \"span\": " + std::to_string(ev.span);
    out += "}";
  }
  out += "\n  ],\n  \"spans\": [";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    out += i == 0 ? "\n" : ",\n";
    out += "    {\"seq\": " + std::to_string(s.seq) +
           ", \"id\": " + std::to_string(s.id) +
           ", \"parent\": " + std::to_string(s.parent) + ", \"name\": \"" +
           JsonEscape(s.name) + "\", \"node\": " +
           (s.node == static_cast<uint32_t>(-1)
                ? std::string("-1")
                : std::to_string(s.node)) +
           ", \"start\": " + std::to_string(s.start) +
           ", \"end\": " + std::to_string(s.end) +
           ", \"notes\": " + std::to_string(s.notes) + "}";
  }
  out += "\n  ]\n}\n";
  return out;
}

Status FlightRecorder::DumpToFile(const std::string& path) const {
  std::string json = Json();
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Status::IoError("flight recorder: cannot open " + path);
  out << json;
  out.flush();
  if (!out) return Status::IoError("flight recorder: write failed: " + path);
  return Status::Ok();
}

}  // namespace diesel::obs
