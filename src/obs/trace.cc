#include "obs/trace.h"

#include <algorithm>
#include <cassert>
#include <iterator>
#include <utility>
#include <vector>

#include "obs/flight_recorder.h"

namespace diesel::obs {
namespace {

// Each thread's open spans, innermost last, as (owning tracer, span id):
// independent tracers never adopt each other's spans, and work handed to
// another thread starts with no open span.
thread_local std::vector<std::pair<const Tracer*, uint64_t>> t_open_spans;

/// Innermost open span of `tracer` on this thread, or kNoSpan.
uint64_t CurrentFor(const Tracer* tracer) {
  for (auto it = t_open_spans.rbegin(); it != t_open_spans.rend(); ++it) {
    if (it->first == tracer) return it->second;
  }
  return kNoSpan;
}

}  // namespace

uint64_t Tracer::Begin(std::string name, Nanos start, uint32_t node,
                       uint64_t parent) {
  std::lock_guard<std::mutex> lock(mutex_);
  Span span;
  span.id = spans_.size() + 1;
  span.parent = parent;
  span.name = std::move(name);
  span.node = node;
  span.start = start;
  span.end = start;
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

void Tracer::End(uint64_t id, Nanos end) {
  if (id == kNoSpan) return;
  Span completed;
  FlightRecorder* recorder = nullptr;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (id > spans_.size()) return;
    spans_[id - 1].end = end;
    if (flight_recorder_ != nullptr) {
      completed = spans_[id - 1];
      recorder = flight_recorder_;
    }
  }
  // Mirror outside the lock: the recorder has its own mutex.
  if (recorder != nullptr) recorder->RecordSpan(completed);
}

void Tracer::Note(uint64_t id, Nanos at, std::string text) {
  if (id == kNoSpan) return;
  std::lock_guard<std::mutex> lock(mutex_);
  if (id <= spans_.size()) {
    spans_[id - 1].notes.push_back({at, std::move(text)});
  }
}

size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_.size();
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

void Tracer::Clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.clear();
}

uint64_t Tracer::CurrentSpanId() { return CurrentFor(this); }

bool Tracer::Find(uint64_t id, Span* out) const {
  if (id == kNoSpan) return false;
  std::lock_guard<std::mutex> lock(mutex_);
  if (id > spans_.size()) return false;
  *out = spans_[id - 1];
  return true;
}

void Tracer::set_flight_recorder(FlightRecorder* recorder) {
  std::lock_guard<std::mutex> lock(mutex_);
  flight_recorder_ = recorder;
}

namespace {

/// Shared forest printer for TextDump/TreeDump: children ordered by
/// (start, id), two-space indent per depth, annotations inline.
std::string DumpForest(const std::vector<Span>& all,
                       std::vector<size_t> roots) {
  std::vector<std::vector<size_t>> children(all.size() + 1);
  for (size_t i = 0; i < all.size(); ++i) {
    if (all[i].parent != kNoSpan && all[i].parent <= all.size()) {
      children[all[i].parent].push_back(i);
    }
  }
  auto by_time = [&](size_t a, size_t b) {
    if (all[a].start != all[b].start) return all[a].start < all[b].start;
    return all[a].id < all[b].id;
  };
  std::sort(roots.begin(), roots.end(), by_time);
  for (auto& c : children) std::sort(c.begin(), c.end(), by_time);

  std::string out;
  // Iterative DFS so deep RPC chains cannot exhaust the stack.
  std::vector<std::pair<size_t, size_t>> stack;  // (span index, depth)
  for (auto r = roots.rbegin(); r != roots.rend(); ++r) stack.push_back({*r, 0});
  while (!stack.empty()) {
    auto [i, depth] = stack.back();
    stack.pop_back();
    const Span& s = all[i];
    std::string indent(depth * 2, ' ');
    out += indent + "[" + std::to_string(s.start) + ".." +
           std::to_string(s.end) + "ns] " + s.name;
    if (s.node != kNoNode) out += " @n" + std::to_string(s.node);
    out += "\n";
    for (const SpanNote& n : s.notes) {
      out += indent + "  ! at=" + std::to_string(n.at) + "ns " + n.text + "\n";
    }
    const auto& kids = children[s.id];
    for (auto k = kids.rbegin(); k != kids.rend(); ++k) {
      stack.push_back({*k, depth + 1});
    }
  }
  return out;
}

}  // namespace

std::string Tracer::TextDump() const {
  std::vector<Span> all = spans();
  std::vector<size_t> roots;
  for (size_t i = 0; i < all.size(); ++i) {
    if (all[i].parent == kNoSpan || all[i].parent > all.size()) {
      roots.push_back(i);
    }
  }
  return DumpForest(all, std::move(roots));
}

std::string Tracer::TreeDump(uint64_t id) const {
  std::vector<Span> all = spans();
  if (id == kNoSpan || id > all.size()) return "";
  // Walk up to the root; parent ids are always smaller than the child's, so
  // the walk terminates even if a stale parent id were recorded.
  size_t i = id - 1;
  while (all[i].parent != kNoSpan && all[i].parent <= all.size() &&
         all[i].parent < all[i].id) {
    i = all[i].parent - 1;
  }
  return DumpForest(all, {i});
}

ScopedSpan::ScopedSpan(Tracer* tracer, std::string name,
                       sim::VirtualClock& clock, uint32_t node)
    : tracer_(tracer), clock_(&clock) {
  if (tracer_ == nullptr) return;
  id_ = tracer_->Begin(std::move(name), clock.now(), node, CurrentFor(tracer_));
  t_open_spans.emplace_back(tracer_, id_);
}

ScopedSpan::~ScopedSpan() {
  if (tracer_ == nullptr) return;
  tracer_->End(id_, clock_->now());
  // Spans close LIFO per thread; an out-of-order close removes its own
  // entry and skips over the others rather than corrupting the stack.
  for (auto it = t_open_spans.rbegin(); it != t_open_spans.rend(); ++it) {
    if (it->first == tracer_ && it->second == id_) {
      t_open_spans.erase(std::next(it).base());
      return;
    }
  }
}

void ScopedSpan::Note(std::string text) {
  if (tracer_ != nullptr) tracer_->Note(id_, clock_->now(), std::move(text));
}

void ScopedSpan::NoteAt(Nanos at, std::string text) {
  if (tracer_ != nullptr) tracer_->Note(id_, at, std::move(text));
}

void ScopedSpan::NoteCurrent(Tracer* tracer, Nanos at, std::string text) {
  if (tracer == nullptr) return;
  uint64_t id = CurrentFor(tracer);
  if (id != kNoSpan) tracer->Note(id, at, std::move(text));
}

}  // namespace diesel::obs
