// Queueing semantics of sim::Device: per-request ServeStats accounting,
// backfill and channel-selection behavior of EarliestFit/Serve, busy-time
// bounds, the kMaxIntervals collapse counter, the registry series a
// BindMetrics()-bound device publishes, and a differential check of the
// indexed scheduler against a plain linear-scan reference.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/rng.h"
#include "obs/metrics.h"
#include "sim/clock.h"
#include "sim/device.h"

namespace diesel::sim {
namespace {

TEST(DeviceQueueingTest, ServeStatsReportStartDoneWaitService) {
  Device d({.name = "qstats", .channels = 1, .latency = 100,
            .bytes_per_sec = 1e9});
  ServeStats st;
  Nanos done = d.Serve(50, 1000, 25, &st);  // service = 100 + 1000 + 25
  EXPECT_EQ(st.done, done);
  EXPECT_EQ(st.start, 50u);
  EXPECT_EQ(st.queue_wait, 0u);
  EXPECT_EQ(st.service, 1125u);
  EXPECT_EQ(st.done, st.start + st.service);

  // Second request at the same arrival queues behind the first.
  Nanos done2 = d.Serve(50, 0, 0, &st);
  EXPECT_EQ(st.start, done);
  EXPECT_EQ(st.queue_wait, done - 50);
  EXPECT_EQ(st.done, done2);
}

TEST(DeviceQueueingTest, QueueWaitIsNonNegativeAndZeroWhenBackfilled) {
  Device d({.name = "qbackfill", .channels = 1, .latency = 100,
            .bytes_per_sec = 0});
  // Book far in the future, then arrive early: the early request backfills
  // the idle gap and must report zero queue wait, not a wait until the
  // booked work finishes.
  ServeStats st;
  d.Serve(10000, 0, 0, &st);
  EXPECT_EQ(st.queue_wait, 0u);
  d.Serve(0, 0, 0, &st);
  EXPECT_EQ(st.start, 0u);
  EXPECT_EQ(st.queue_wait, 0u);
  // Gap [200, 10000) still has room: arrival at 150 starts at 200 and the
  // wait is exactly the gap to the feasible start.
  d.Serve(0, 0, 0, &st);
  EXPECT_EQ(st.start, 100u);
  d.Serve(150, 0, 0, &st);
  EXPECT_EQ(st.start, 200u);
  EXPECT_EQ(st.queue_wait, 50u);
}

TEST(DeviceQueueingTest, ChannelSelectionAvoidsQueueingWhenIdleChannelExists) {
  Device d({.name = "qchan", .channels = 2, .latency = 100,
            .bytes_per_sec = 0});
  ServeStats st;
  d.Serve(0, 0, 0, &st);
  EXPECT_EQ(st.queue_wait, 0u);
  d.Serve(0, 0, 0, &st);
  EXPECT_EQ(st.queue_wait, 0u);  // second channel picks up the request
  d.Serve(0, 0, 0, &st);
  EXPECT_EQ(st.start, 100u);  // both busy: queue behind the earlier finisher
  EXPECT_EQ(st.queue_wait, 100u);
}

TEST(DeviceQueueingTest, BusyTimeBoundedByChannelsTimesElapsed) {
  // Closed-loop overload of a 3-channel device: total busy time can never
  // exceed channels x the busy window (channels are physical servers), and
  // under saturation it should be close to that bound.
  Device d({.name = "qbound", .channels = 3, .latency = 50,
            .bytes_per_sec = 0});
  constexpr int kWorkers = 8, kOps = 500;
  std::vector<VirtualClock> clocks(kWorkers);
  Nanos latest = 0;
  for (int i = 0; i < kOps; ++i) {
    for (auto& c : clocks) {
      c.AdvanceTo(d.Serve(c.now(), 0));
      latest = std::max(latest, c.now());
    }
  }
  Nanos cap = static_cast<Nanos>(d.spec().channels) * latest;
  EXPECT_LE(d.busy_time(), cap);
  EXPECT_GE(d.busy_time(), cap * 9 / 10);  // saturated: near the bound
  EXPECT_EQ(d.busy_time(), static_cast<Nanos>(kWorkers) * kOps * 50);
}

TEST(DeviceQueueingTest, IntervalCapCollapseIsCounted) {
  // Widely spaced serves leave disjoint busy intervals; past kMaxIntervals
  // (4096) the oldest gap is collapsed and the device counts it.
  Device d({.name = "qcap", .channels = 1, .latency = 10,
            .bytes_per_sec = 0});
  constexpr int kOps = 5000;
  for (int i = 0; i < kOps; ++i) {
    d.Serve(static_cast<Nanos>(i) * 1000, 0);
  }
  EXPECT_GT(d.intervals_collapsed(), 0u);
  EXPECT_EQ(d.ops_served(), static_cast<uint64_t>(kOps));
  d.Reset();
  EXPECT_EQ(d.intervals_collapsed(), 0u);
}

TEST(DeviceQueueingTest, BoundDevicePublishesRegistrySeries) {
  Device d({.name = "qbound-metrics", .channels = 2, .latency = 100,
            .bytes_per_sec = 0});
  EXPECT_FALSE(d.metrics_bound());
  obs::MetricsSnapshot base = obs::Metrics().Snapshot();
  d.BindMetrics("n7");
  EXPECT_TRUE(d.metrics_bound());
  d.Serve(0, 64);
  d.Serve(0, 64);
  d.Serve(0, 64);  // queues: one non-zero queue-wait observation

  obs::MetricsSnapshot delta = obs::Metrics().Snapshot().DeltaSince(base);
  const std::string labels = "{device=qbound-metrics,node=n7}";
  EXPECT_EQ(delta.counters.at("sim.device.ops" + labels), 3u);
  EXPECT_EQ(delta.counters.at("sim.device.bytes" + labels), 3u * 64);
  EXPECT_EQ(delta.counters.at("sim.device.busy_ns" + labels), d.busy_time());
  EXPECT_EQ(delta.histograms.at("sim.device.queue_wait_ns" + labels).count(),
            3u);
  EXPECT_EQ(delta.histograms.at("sim.device.service_ns" + labels).count(), 3u);
  // Gauges are absolute: read from the current snapshot.
  obs::MetricsSnapshot cur = obs::Metrics().Snapshot();
  EXPECT_EQ(cur.gauges.at("sim.device.channels" + labels), 2.0);
  EXPECT_EQ(cur.gauges.at("sim.device.busy_end_ns" + labels), 200.0);
}

/// The straightforward scheduler Device must agree with: every channel's
/// busy list is scanned from the front, every channel is tried, and the
/// kMaxIntervals collapse erases the list's first element in place.
class ReferenceScheduler {
 public:
  static constexpr size_t kMaxIntervals = 4096;

  explicit ReferenceScheduler(size_t channels) : channels_(channels) {}

  ServeStats Serve(Nanos now, Nanos service) {
    Nanos best_start = ~Nanos{0};
    size_t best_channel = 0;
    for (size_t c = 0; c < channels_.size(); ++c) {
      Nanos start = EarliestFit(channels_[c].busy, now, service);
      if (start < best_start) {
        best_start = start;
        best_channel = c;
      }
    }
    Channel& ch = channels_[best_channel];
    if (Insert(ch.busy, best_start, best_start + service)) {
      ++ch.collapsed;
      ++collapsed_;
    }
    busy_ += service;
    return {.start = best_start, .done = best_start + service,
            .queue_wait = best_start - now, .service = service};
  }

  void Reset() {
    for (auto& ch : channels_) ch.busy.clear();
    busy_ = 0;
    collapsed_ = 0;
  }

  Nanos busy_time() const { return busy_; }
  uint64_t intervals_collapsed() const { return collapsed_; }
  /// Most collapses any one channel has seen since construction.
  uint64_t max_channel_collapses() const {
    uint64_t most = 0;
    for (const auto& ch : channels_) most = std::max(most, ch.collapsed);
    return most;
  }

 private:
  struct Interval {
    Nanos start;
    Nanos end;
  };
  struct Channel {
    std::vector<Interval> busy;
    uint64_t collapsed = 0;
  };

  static Nanos EarliestFit(const std::vector<Interval>& busy, Nanos now,
                           Nanos dur) {
    Nanos candidate = now;
    for (const Interval& iv : busy) {
      if (iv.start >= candidate && iv.start - candidate >= dur) break;
      candidate = std::max(candidate, iv.end);
    }
    return candidate;
  }

  static bool Insert(std::vector<Interval>& busy, Nanos start, Nanos end) {
    auto it = std::lower_bound(
        busy.begin(), busy.end(), start,
        [](const Interval& iv, Nanos s) { return iv.start < s; });
    it = busy.insert(it, {start, end});
    if (it != busy.begin()) {
      auto prev = it - 1;
      if (prev->end >= it->start) {
        prev->end = std::max(prev->end, it->end);
        it = busy.erase(it);
        --it;
      }
    }
    auto next = it + 1;
    if (next != busy.end() && it->end >= next->start) {
      it->end = std::max(it->end, next->end);
      busy.erase(next);
    }
    if (busy.size() > kMaxIntervals) {
      busy[1].start = busy[0].start;
      busy.erase(busy.begin());
      return true;
    }
    return false;
  }

  std::vector<Channel> channels_;
  Nanos busy_ = 0;
  uint64_t collapsed_ = 0;
};

/// Drives Device and the reference with the same seeded stream of
/// out-of-order arrivals and requires identical results, op by op. The
/// stream mostly advances a frontier with gaps (so busy lists fill to the
/// cap and collapse), with same-instant bursts that spill onto other
/// channels, backfills into the recent past, and arrivals far in the past
/// that land in collapsed history. Device is Reset() halfway through.
void ExpectMatchesReference(uint32_t channels, uint64_t seed) {
  Device d({.name = "qdiff", .channels = channels, .latency = 100,
            .bytes_per_sec = 1e9});
  ReferenceScheduler ref(channels);
  Rng rng(seed);
  constexpr int kOps = 60000;
  Nanos frontier = 0;
  uint64_t bytes_total = 0;
  for (int i = 0; i < kOps; ++i) {
    if (i == kOps / 2) {
      ASSERT_EQ(d.busy_time(), ref.busy_time());
      ASSERT_EQ(d.intervals_collapsed(), ref.intervals_collapsed());
      ASSERT_EQ(d.ops_served(), static_cast<uint64_t>(i));
      d.Reset();
      ref.Reset();
      frontier = 0;
      bytes_total = 0;
    }
    uint64_t bytes = rng.Uniform(4096);
    Nanos extra = rng.Uniform(4) == 0 ? rng.Uniform(500) : 0;
    Nanos now = frontier;
    uint64_t kind = rng.Uniform(100);
    if (kind < 75) {
      frontier += rng.Uniform(8) == 0 ? 0 : rng.Uniform(10000);
    } else if (kind < 95) {
      now -= std::min<Nanos>(now, rng.Uniform(100000));
    } else {
      now = rng.Uniform(frontier + 1);
    }
    ServeStats got;
    Nanos done = d.Serve(now, bytes, extra, &got);
    ServeStats want = ref.Serve(now, d.ServiceTime(bytes) + extra);
    ASSERT_EQ(done, want.done) << "op " << i;
    ASSERT_EQ(got.start, want.start) << "op " << i;
    ASSERT_EQ(got.done, want.done) << "op " << i;
    ASSERT_EQ(got.queue_wait, want.queue_wait) << "op " << i;
    ASSERT_EQ(got.service, want.service) << "op " << i;
    bytes_total += bytes;
  }
  EXPECT_EQ(d.busy_time(), ref.busy_time());
  EXPECT_EQ(d.intervals_collapsed(), ref.intervals_collapsed());
  EXPECT_EQ(d.ops_served(), static_cast<uint64_t>(kOps - kOps / 2));
  EXPECT_EQ(d.bytes_served(), bytes_total);
  // Enough collapses on one channel that Device compacted its list (once
  // every kMaxIntervals collapses) several times.
  EXPECT_GE(ref.max_channel_collapses(), 3 * ReferenceScheduler::kMaxIntervals);
}

TEST(DeviceQueueingTest, MatchesLinearScanReferenceOneChannel) {
  ExpectMatchesReference(1, 11);
}

TEST(DeviceQueueingTest, MatchesLinearScanReferenceThreeChannels) {
  ExpectMatchesReference(3, 12);
}

TEST(DeviceQueueingTest, MatchesLinearScanReferenceEightChannels) {
  ExpectMatchesReference(8, 13);
}

}  // namespace
}  // namespace diesel::sim
