#include "sim/device.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "obs/metrics.h"

namespace diesel::sim {

Device::Device(DeviceSpec spec) : spec_(std::move(spec)) {
  assert(spec_.channels > 0);
  channels_.resize(spec_.channels);
}

Nanos Device::ServiceTime(uint64_t bytes) const {
  Nanos transfer = 0;
  if (spec_.bytes_per_sec > 0.0 && bytes > 0) {
    transfer = static_cast<Nanos>(
        std::llround(static_cast<double>(bytes) / spec_.bytes_per_sec * 1e9));
  }
  return spec_.latency + transfer;
}

void Device::BindMetrics(const std::string& node) {
  obs::MetricsRegistry& reg = obs::Metrics();
  obs::Labels labels{{"device", spec_.name}, {"node", node}};
  Metrics m;
  m.queue_wait_ns = &reg.GetHistogram("sim.device.queue_wait_ns", labels);
  m.service_ns = &reg.GetHistogram("sim.device.service_ns", labels);
  m.busy_ns = &reg.GetCounter("sim.device.busy_ns", labels);
  m.ops = &reg.GetCounter("sim.device.ops", labels);
  m.bytes = &reg.GetCounter("sim.device.bytes", labels);
  m.intervals_collapsed =
      &reg.GetCounter("sim.device.intervals_collapsed", labels);
  m.channels = &reg.GetGauge("sim.device.channels", labels);
  m.busy_start_ns = &reg.GetGauge("sim.device.busy_start_ns", labels);
  m.busy_end_ns = &reg.GetGauge("sim.device.busy_end_ns", labels);
  std::lock_guard<std::mutex> lock(mutex_);
  metrics_ = m;
  metrics_.channels->Set(static_cast<double>(spec_.channels));
  bound_ = true;
}

bool Device::metrics_bound() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return bound_;
}

Nanos Device::Serve(Nanos now, uint64_t bytes, Nanos extra, ServeStats* out) {
  Nanos service = ServiceTime(bytes) + extra;
  if (service == 0) service = 1;  // occupy a measurable instant
  std::lock_guard<std::mutex> lock(mutex_);

  // Requests may arrive out of virtual-time order (a driver executes one
  // worker's whole multi-leg operation before another worker's earlier
  // request). Channels therefore keep busy *intervals* and new work backfills
  // the earliest idle gap at or after `now`, instead of queueing behind
  // later-scheduled work. Ties go to the lowest channel, so the first
  // channel that can start at `now` is final: none can start earlier.
  Nanos best_start = ~Nanos{0};
  size_t best_channel = 0;
  for (size_t c = 0; c < channels_.size(); ++c) {
    Nanos start = EarliestFit(channels_[c], now, service);
    if (start < best_start) {
      best_start = start;
      best_channel = c;
      if (start == now) break;
    }
  }
  size_t collapsed =
      Insert(channels_[best_channel], best_start, best_start + service);
  intervals_collapsed_ += collapsed;

  ++ops_;
  bytes_ += bytes;
  busy_ += service;
  Nanos done = best_start + service;
  if (!seen_start_ || best_start < first_start_) first_start_ = best_start;
  seen_start_ = true;
  last_end_ = std::max(last_end_, done);
  if (out != nullptr) {
    out->start = best_start;
    out->done = done;
    out->queue_wait = best_start - now;
    out->service = service;
  }
  if (bound_) {
    metrics_.queue_wait_ns->Observe(static_cast<double>(best_start - now));
    metrics_.service_ns->Observe(static_cast<double>(service));
    metrics_.busy_ns->Inc(static_cast<uint64_t>(service));
    metrics_.ops->Inc();
    metrics_.bytes->Inc(bytes);
    if (collapsed > 0) metrics_.intervals_collapsed->Inc(collapsed);
    metrics_.busy_start_ns->Set(static_cast<double>(first_start_));
    metrics_.busy_end_ns->Set(static_cast<double>(last_end_));
  }
  return done;
}

Nanos Device::EarliestFit(const Channel& ch, Nanos now, Nanos dur) {
  // An interval ending at or before `now` also starts before it, so it can
  // neither hold a fitting gap nor push the candidate: skip them all with a
  // binary search on the (sorted) ends.
  auto it = std::upper_bound(
      ch.busy.begin() + static_cast<std::ptrdiff_t>(ch.head), ch.busy.end(),
      now, [](Nanos t, const Interval& iv) { return t < iv.end; });
  Nanos candidate = now;
  for (; it != ch.busy.end(); ++it) {
    if (it->start >= candidate && it->start - candidate >= dur) break;
    candidate = std::max(candidate, it->end);
  }
  return candidate;
}

size_t Device::Insert(Channel& ch, Nanos start, Nanos end) {
  const auto head = static_cast<std::ptrdiff_t>(ch.head);
  auto it = std::lower_bound(
      ch.busy.begin() + head, ch.busy.end(), start,
      [](const Interval& iv, Nanos s) { return iv.start < s; });
  it = ch.busy.insert(it, {start, end});
  // Merge with touching neighbours to keep the list short.
  if (it != ch.busy.begin() + head) {
    auto prev = it - 1;
    if (prev->end >= it->start) {
      prev->end = std::max(prev->end, it->end);
      it = ch.busy.erase(it);
      --it;
    }
  }
  auto next = it + 1;
  if (next != ch.busy.end() && it->end >= next->start) {
    it->end = std::max(it->end, next->end);
    ch.busy.erase(next);
  }
  // Bound memory: collapse the oldest gap when the list grows long. This is
  // conservative (pretends the gap was busy) and only affects requests that
  // arrive before the oldest gap still tracked. Reported so skewed backfill
  // accounting is visible instead of silent. The collapsed interval is
  // retired by advancing `head`; the vector is compacted once per
  // kMaxIntervals collapses, so a collapse costs amortized O(1).
  if (ch.busy.size() - ch.head > kMaxIntervals) {
    ch.busy[ch.head + 1].start = ch.busy[ch.head].start;
    if (++ch.head == kMaxIntervals) {
      ch.busy.erase(ch.busy.begin(), ch.busy.begin() + kMaxIntervals);
      ch.head = 0;
    }
    return 1;
  }
  return 0;
}

uint64_t Device::ops_served() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return ops_;
}

uint64_t Device::bytes_served() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return bytes_;
}

Nanos Device::busy_time() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return busy_;
}

uint64_t Device::intervals_collapsed() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return intervals_collapsed_;
}

void Device::Reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& ch : channels_) {
    ch.busy.clear();
    ch.head = 0;
  }
  ops_ = 0;
  bytes_ = 0;
  busy_ = 0;
  intervals_collapsed_ = 0;
  seen_start_ = false;
  first_start_ = 0;
  last_end_ = 0;
}

}  // namespace diesel::sim
