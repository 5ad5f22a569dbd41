// Shared helpers for the experiment harness.
//
// Each bench binary reproduces one table/figure of the paper and prints the
// same rows/series the paper reports. Measurements are virtual-time: logical
// workers advance deterministic clocks through shared queueing devices, so
// every run prints identical numbers.
#pragma once

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/units.h"
#include "obs/cluster_view.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/timeline.h"
#include "sim/clock.h"

namespace diesel::bench {

/// Fixed-count closed loop on sim::DriveEarliestFirst: each of
/// `num_workers` workers runs `ops_per_worker` operations on its own clock,
/// which starts at `start`. `op(worker, clock)` performs one operation and
/// charges the clock. Returns the makespan: the latest clock, or `start`
/// when there is no work.
inline Nanos DriveClosedLoop(
    size_t num_workers, size_t ops_per_worker,
    const std::function<void(size_t, sim::VirtualClock&)>& op,
    Nanos start = 0) {
  std::vector<sim::VirtualClock> clocks(num_workers, sim::VirtualClock(start));
  std::vector<size_t> done(num_workers, 0);
  Nanos end = sim::DriveEarliestFirst(
      num_workers, [&](size_t w) { return clocks[w].now(); },
      [&](size_t w) {
        if (done[w] == ops_per_worker) return false;
        op(w, clocks[w]);
        ++done[w];
        return true;
      });
  return std::max(start, end);
}

/// Fixed-width table printer.
class Table {
 public:
  explicit Table(std::vector<std::string> headers)
      : headers_(std::move(headers)) {}

  void AddRow(std::vector<std::string> cells) {
    rows_.push_back(std::move(cells));
  }

  void Print() const {
    std::vector<size_t> width(headers_.size());
    for (size_t c = 0; c < headers_.size(); ++c) width[c] = headers_[c].size();
    for (const auto& row : rows_) {
      for (size_t c = 0; c < row.size() && c < width.size(); ++c) {
        width[c] = std::max(width[c], row[c].size());
      }
    }
    PrintRow(headers_, width);
    std::string rule;
    for (size_t c = 0; c < width.size(); ++c) {
      rule += std::string(width[c], '-');
      if (c + 1 < width.size()) rule += "-+-";
    }
    std::printf("%s\n", rule.c_str());
    for (const auto& row : rows_) PrintRow(row, width);
  }

 private:
  static void PrintRow(const std::vector<std::string>& row,
                       const std::vector<size_t>& width) {
    std::string line;
    for (size_t c = 0; c < width.size(); ++c) {
      std::string cell = c < row.size() ? row[c] : "";
      cell.resize(width[c], ' ');
      line += cell;
      if (c + 1 < width.size()) line += " | ";
    }
    std::printf("%s\n", line.c_str());
  }

  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

inline std::string Fmt(const char* fmt, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), fmt, v);
  return buf;
}

inline std::string FmtCount(double v) {
  if (v >= 1e6) return Fmt("%.2fM", v / 1e6);
  if (v >= 1e3) return Fmt("%.1fk", v / 1e3);
  return Fmt("%.0f", v);
}

inline void Banner(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

/// Resolve `<bench_name><suffix>` inside the directory named by `env_var`
/// (cwd when unset), creating the directory if missing. Returns "" and
/// prints to stderr when the directory cannot be created.
inline std::string ResolveDumpPath(const std::string& bench_name,
                                   const char* env_var, const char* suffix) {
  const char* dir = std::getenv(env_var);
  if (dir == nullptr || *dir == '\0') return bench_name + suffix;
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    std::fprintf(stderr, "error: cannot create %s=%s: %s\n", env_var, dir,
                 ec.message().c_str());
    return "";
  }
  return std::string(dir) + "/" + bench_name + suffix;
}

/// Dump the process-wide metrics registry as JSON next to the bench output:
/// `$DIESEL_METRICS_DIR/<bench_name>.metrics.json` (cwd when the variable is
/// unset; the directory is created if missing). Call once at the end of
/// main; returns the path written, or "" on I/O failure (reported on
/// stderr — the bench result itself is unaffected).
inline std::string DumpMetricsJson(const std::string& bench_name) {
  std::string path =
      ResolveDumpPath(bench_name, "DIESEL_METRICS_DIR", ".metrics.json");
  if (path.empty()) return "";
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "error: cannot open %s for writing\n", path.c_str());
    return "";
  }
  out << obs::Metrics().Json() << "\n";
  out.close();
  if (!out) {
    std::fprintf(stderr, "error: write to %s failed\n", path.c_str());
    return "";
  }
  std::printf("metrics: %s\n", path.c_str());
  return path;
}

// ---------------------------------------------------------------------------
// Perf-trajectory report harness.
//
// Every bench main wraps its run in OpenReport/CloseReport and records the
// figures it prints as direction-aware metrics. CloseReport writes
// `$DIESEL_BENCH_DIR/<bench>.report.json` (plus the legacy metrics dump)
// and its return value is the bench's exit code, so lost artifacts fail
// loudly instead of silently producing an empty suite.
// ---------------------------------------------------------------------------

namespace detail {
inline obs::BenchReport g_report;   // NOLINT(misc-definitions-in-headers)
inline bool g_report_open = false;  // NOLINT(misc-definitions-in-headers)
inline obs::Timeline g_timeline;    // NOLINT(misc-definitions-in-headers)
// NOLINTNEXTLINE(misc-definitions-in-headers)
inline std::vector<std::string> g_timeline_sections;
}  // namespace detail

/// Begin the report for this bench run. `seed` is the master seed the run's
/// results are a pure function of.
inline void OpenReport(std::string bench_name, uint64_t seed) {
  detail::g_report = obs::BenchReport{};
  detail::g_report.bench = std::move(bench_name);
  detail::g_report.seed = seed;
  detail::g_report_open = true;
}

/// Per-job variant for multi-tenant benches: each tenant's figures land in
/// their own `<bench>.job<id>.report.json` next to the aggregate document,
/// so one run yields per-job artifacts the fairness gates can inspect
/// without re-running.
inline void OpenReport(const std::string& bench_name, uint64_t seed,
                       uint32_t job_id) {
  OpenReport(bench_name + ".job" + std::to_string(job_id), seed);
}

/// Record a configuration parameter that shaped the run.
inline void Param(std::string key, std::string value) {
  detail::g_report.params.emplace_back(std::move(key), std::move(value));
}
inline void Param(std::string key, double value) {
  detail::g_report.params.emplace_back(std::move(key),
                                       JsonNumberToString(value));
}

/// Record a gated, direction-aware result metric.
inline void Metric(std::string name, std::string unit, double value,
                   obs::Direction direction, double tolerance = 0.01) {
  obs::BenchMetric m;
  m.name = std::move(name);
  m.unit = std::move(unit);
  m.value = value;
  m.direction = direction;
  m.tolerance = tolerance;
  detail::g_report.metrics.push_back(std::move(m));
}

/// Record an informational metric (never gates the perf diff) — use for
/// wall-clock timings and raw counts.
inline void Info(std::string name, std::string unit, double value) {
  Metric(std::move(name), std::move(unit), value, obs::Direction::kInfo, 0.0);
}

/// Record one epoch's stall-attribution timeline row (Fig. 15
/// decomposition). Values are virtual nanoseconds; they must sum to the
/// epoch's virtual duration.
inline void AddEpochPhases(std::string label, int64_t epoch, int64_t fetch_ns,
                           int64_t shuffle_ns, int64_t train_ns,
                           int64_t other_ns = 0) {
  obs::EpochPhases e;
  e.label = std::move(label);
  e.epoch = epoch;
  e.fetch_ns = fetch_ns;
  e.shuffle_ns = shuffle_ns;
  e.train_ns = train_ns;
  e.other_ns = other_ns;
  detail::g_report.epochs.push_back(std::move(e));
}

/// Accumulate simulated virtual time covered by the bench (informational).
inline void AddVirtualTime(Nanos ns) { detail::g_report.virtual_ns += ns; }

/// Derive the cluster utilization view from the current registry (deltaed
/// against `base` when non-null) over `window_ns` of virtual time, and
/// publish the derived gauges (sim.device.util / net.link.util /
/// cluster.node.util / cluster.imbalance.*) so they land in the report's
/// embedded registry for `dlcmd util` / `dlcmd hotspots` and the SLO gate.
inline obs::ClusterView ExportClusterUtil(Nanos window_ns,
                                          const obs::MetricsSnapshot* base =
                                              nullptr) {
  obs::ClusterView view =
      obs::ClusterView::Compute(obs::Metrics().Snapshot(), base, window_ns);
  view.ExportGauges();
  return view;
}

/// Record the standard gated skew rows from a computed view under
/// `prefix` (e.g. "cluster.imbalance"). Ratios are gated tightly — the
/// virtual-time workload is deterministic, so drift means a real change in
/// load distribution — while max utilization gates downward-is-better.
inline void MetricImbalance(const std::string& prefix,
                            const obs::ClusterView& view,
                            double tolerance = 0.02) {
  const obs::ImbalanceStats& s = view.imbalance();
  Metric(prefix + ".max_util", "util", s.max_util,
         obs::Direction::kLowerIsBetter, tolerance);
  Metric(prefix + ".max_over_median", "x", s.max_over_median,
         obs::Direction::kLowerIsBetter, tolerance);
  Metric(prefix + ".cv", "ratio", s.cv, obs::Direction::kLowerIsBetter,
         tolerance);
}

// ---------------------------------------------------------------------------
// Timeline sections.
//
// Scenario loops that want time-resolved curves bracket each scenario with
// OpenTimeline / CloseTimeline and call TimelineTick(now) once per operation.
// Each scenario becomes a labeled section; CloseReport writes them all as one
// `$DIESEL_BENCH_DIR/<bench>.timeline.json` (diesel.timeline/v1) next to the
// report. Benches that never open a timeline emit no timeline artifact.
// ---------------------------------------------------------------------------

/// Begin a timeline section at virtual time `at` with the given bucket
/// width. Restarts sampling; the previous section must be closed first.
inline void OpenTimeline(Nanos at, Nanos bucket_ns = 1'000'000) {
  obs::Timeline::Options opt;
  opt.bucket_ns = bucket_ns;
  detail::g_timeline = obs::Timeline(opt);
  detail::g_timeline.Start(at);
}

/// Sample the registry if `now` crossed a bucket boundary (cheap otherwise).
inline void TimelineTick(Nanos now) { detail::g_timeline.AdvanceTo(now); }

/// Attach a labeled marker (fault window edge, membership change) to the
/// open section.
inline void TimelineNote(Nanos at, std::string text) {
  detail::g_timeline.Note(at, std::move(text));
}

/// Close the open section as `label` and queue it for the document dump.
inline void CloseTimeline(const std::string& label, Nanos now) {
  if (!detail::g_timeline.started()) return;
  detail::g_timeline.Finish(now);
  detail::g_timeline_sections.push_back(detail::g_timeline.SectionJson(label));
}

namespace detail {
// NOLINTNEXTLINE(misc-definitions-in-headers)
inline int DumpTimelineDocument() {
  if (g_timeline_sections.empty()) return 0;
  std::string path =
      ResolveDumpPath(g_report.bench, "DIESEL_BENCH_DIR", ".timeline.json");
  std::vector<std::string> sections = std::move(g_timeline_sections);
  g_timeline_sections.clear();
  if (path.empty()) return 1;
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "error: cannot open %s for writing\n", path.c_str());
    return 1;
  }
  out << obs::TimelineDocumentJson(g_report.bench, sections) << "\n";
  out.close();
  if (!out) {
    std::fprintf(stderr, "error: write to %s failed\n", path.c_str());
    return 1;
  }
  std::printf("timeline: %s\n", path.c_str());
  return 0;
}
}  // namespace detail

/// Finish the report: embed the final registry snapshot, write
/// `$DIESEL_BENCH_DIR/<bench>.report.json` and the legacy metrics dump.
/// Returns the bench's exit code: 0 on success, 1 when an artifact could
/// not be written.
inline int CloseReport() {
  if (!detail::g_report_open) return 0;
  detail::g_report_open = false;
  bool ok = !DumpMetricsJson(detail::g_report.bench).empty();
  ok = detail::DumpTimelineDocument() == 0 && ok;
  auto registry = JsonValue::Parse(obs::Metrics().Json());
  if (registry.ok()) detail::g_report.registry = std::move(registry).value();
  std::string path = ResolveDumpPath(detail::g_report.bench, "DIESEL_BENCH_DIR",
                                     ".report.json");
  if (path.empty()) return 1;
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "error: cannot open %s for writing\n", path.c_str());
    return 1;
  }
  out << detail::g_report.Json();
  out.close();
  if (!out) {
    std::fprintf(stderr, "error: write to %s failed\n", path.c_str());
    return 1;
  }
  std::printf("report: %s\n", path.c_str());
  return ok ? 0 : 1;
}

}  // namespace diesel::bench
