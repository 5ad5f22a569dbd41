// Figure 12: read bandwidth on 10 nodes (160 threads) for 4KB and 128KB
// files, with DIESEL's chunk-wise shuffle versus Lustre's random file reads.
// DIESEL-API reads through the group-window reader (whole-chunk fetches);
// DIESEL-FUSE adds the kernel-crossing costs; Lustre serves each file
// individually in random order.
#include <memory>
#include <vector>

#include "bench/bench_util.h"
#include "core/deployment.h"
#include "dlt/dataset_gen.h"
#include "lustre/lustre.h"
#include "shuffle/group_reader.h"
#include "shuffle/shuffle.h"
#include "sim/calibration.h"

namespace diesel {
namespace {

constexpr size_t kNodes = 10;
constexpr size_t kThreadsPerNode = 16;

struct Row {
  double diesel_api_mb = 0, diesel_api_files = 0;
  double diesel_fuse_mb = 0, diesel_fuse_files = 0;
  double lustre_mb = 0, lustre_files = 0;
};

/// When non-null, `api_view` receives the per-node utilization view of the
/// DIESEL-API variant (deltaed against the registry state at its start, so
/// earlier configurations don't bleed in).
Row Measure(uint64_t file_size, size_t num_files,
            obs::ClusterView* api_view = nullptr) {
  Row row;
  dlt::DatasetSpec spec;
  spec.name = "f12";
  spec.num_classes = 10;
  spec.files_per_class = num_files / 10;
  spec.mean_file_bytes = file_size;
  spec.fixed_size = true;

  // ---- DIESEL (API and FUSE variants) --------------------------------------
  {
    core::DeploymentOptions opts;
    opts.num_client_nodes = kNodes;
    opts.num_servers = 4;  // spread chunk traffic over several server NICs
    core::Deployment dep(opts);
    auto writer = dep.MakeClient(0, 99, spec.name);
    if (!dlt::ForEachFile(spec, [&](const dlt::GeneratedFile& f) {
          return writer->Put(f.path, f.content);
        }).ok() ||
        !writer->Flush().ok()) {
      std::abort();
    }
    auto snap = dep.server(0).BuildSnapshot(writer->clock(), 0, spec.name);
    if (!snap.ok()) std::abort();

    for (bool fuse : {false, true}) {
      dep.ResetDevices();  // independent virtual-time run per variant
      obs::MetricsSnapshot base = obs::Metrics().Snapshot();
      Rng rng(41);
      // Single-chunk groups: with a scaled-down dataset this keeps enough
      // groups that all 160 reader threads have work.
      shuffle::ShufflePlan plan =
          shuffle::ChunkWiseShuffle(*snap, {.group_size = 1}, rng);
      // One group-window reader per thread, each owning a slice of groups.
      const size_t kThreads = kNodes * kThreadsPerNode;
      std::vector<std::unique_ptr<shuffle::GroupWindowReader>> readers;
      for (size_t t = 0; t < kThreads; ++t) {
        readers.push_back(std::make_unique<shuffle::GroupWindowReader>(
            dep.server(t % dep.num_servers()), snap.value(),
            static_cast<sim::NodeId>(t % kNodes)));
        readers.back()->StartEpoch(shuffle::PartitionPlan(plan, t, kThreads));
      }
      std::vector<sim::VirtualClock> clocks(kThreads);
      uint64_t bytes = 0, files = 0;
      Nanos end = sim::DriveEarliestFirst(
          kThreads, [&](size_t t) { return clocks[t].now(); },
          [&](size_t t) {
            if (readers[t]->Done()) return false;
            auto content = readers[t]->Next(clocks[t]);
            if (!content.ok()) std::abort();
            if (fuse) clocks[t].Advance(2 * sim::kFuseCrossingCost);
            bytes += content->size();
            ++files;
            return true;
          });
      double secs = ToSeconds(end);
      if (!fuse && api_view != nullptr) {
        *api_view = bench::ExportClusterUtil(end, &base);
      }
      if (fuse) {
        row.diesel_fuse_mb = static_cast<double>(bytes) / 1e6 / secs;
        row.diesel_fuse_files = static_cast<double>(files) / secs;
      } else {
        row.diesel_api_mb = static_cast<double>(bytes) / 1e6 / secs;
        row.diesel_api_files = static_cast<double>(files) / secs;
      }
    }
  }

  // ---- Lustre random reads ---------------------------------------------------
  {
    sim::Cluster cluster(kNodes + 2);
    net::Fabric fabric(cluster);
    lustre::LustreFs fs(fabric, {.mds_node = kNodes, .oss_node = kNodes + 1});
    sim::VirtualClock setup;
    for (size_t i = 0; i < spec.total_files(); ++i) {
      if (!fs.CreateSized(setup, 0, dlt::FilePath(spec, i), file_size).ok())
        std::abort();
    }
    const size_t kThreads = kNodes * kThreadsPerNode;
    Rng rng(43);
    std::vector<uint32_t> order(spec.total_files());
    for (size_t i = 0; i < order.size(); ++i) order[i] = static_cast<uint32_t>(i);
    rng.Shuffle(order);
    size_t cursor = 0;
    Nanos end = bench::DriveClosedLoop(
        kThreads, spec.total_files() / kThreads,
        [&](size_t t, sim::VirtualClock& clock) {
          auto r = fs.Read(clock, static_cast<sim::NodeId>(t % kNodes),
                           dlt::FilePath(spec, order[cursor++ % order.size()]));
          if (!r.ok()) std::abort();
        });
    double secs = ToSeconds(end);
    double files = static_cast<double>(
        kThreads * (spec.total_files() / kThreads));
    row.lustre_files = files / secs;
    row.lustre_mb = files * static_cast<double>(file_size) / 1e6 / secs;
  }
  return row;
}

void Run() {
  bench::Banner("Figure 12: read bandwidth with chunk-wise shuffle, "
                "10 nodes x 16 threads");
  bench::Table table({"file size", "system", "MB/s", "files/s",
                      "vs Lustre"});
  struct Cfg {
    const char* label;
    uint64_t size;
    size_t files;
  };
  for (const Cfg& cfg : {Cfg{"4KB", 4096, 160000},
                         Cfg{"128KB", 128 * 1024, 8000}}) {
    obs::ClusterView api_view;
    Row row = Measure(cfg.size, cfg.files, &api_view);
    table.AddRow({cfg.label, "DIESEL-API", bench::Fmt("%.1f", row.diesel_api_mb),
                  bench::FmtCount(row.diesel_api_files),
                  bench::Fmt("%.1fx", row.diesel_api_mb / row.lustre_mb)});
    table.AddRow({cfg.label, "DIESEL-FUSE",
                  bench::Fmt("%.1f", row.diesel_fuse_mb),
                  bench::FmtCount(row.diesel_fuse_files),
                  bench::Fmt("%.1fx", row.diesel_fuse_mb / row.lustre_mb)});
    table.AddRow({cfg.label, "Lustre", bench::Fmt("%.1f", row.lustre_mb),
                  bench::FmtCount(row.lustre_files), "1.0x"});
    std::string tag = cfg.label;
    bench::Metric("mb_per_s.api." + tag, "MB/s", row.diesel_api_mb,
                  obs::Direction::kHigherIsBetter);
    bench::Metric("mb_per_s.fuse." + tag, "MB/s", row.diesel_fuse_mb,
                  obs::Direction::kHigherIsBetter);
    bench::Metric("mb_per_s.lustre." + tag, "MB/s", row.lustre_mb,
                  obs::Direction::kHigherIsBetter);
    bench::Metric("files_per_s.api." + tag, "files/s", row.diesel_api_files,
                  obs::Direction::kHigherIsBetter);
    bench::MetricImbalance("cluster.imbalance.api." + tag, api_view);
    std::printf("\nDIESEL-API %s cluster utilization:\n%s", cfg.label,
                api_view.Render(6).c_str());
  }
  table.Print();
  std::printf("\nPaper: 4KB -> Lustre 60.2MB/s vs DIESEL-API 4317MB/s (71.7x)"
              " and DIESEL-FUSE 3483.7MB/s (57.8x); 128KB -> Lustre "
              "2001.8MB/s vs DIESEL-API 10095.3MB/s (5.0x) and DIESEL-FUSE "
              "8712.5MB/s (4.4x).\n");
}

}  // namespace
}  // namespace diesel

int main() {
  diesel::bench::OpenReport("fig12_shuffle_bw", 41);
  diesel::bench::Param("nodes", 10.0);
  diesel::bench::Param("threads_per_node", 16.0);
  diesel::Run();
  return diesel::bench::CloseReport();
}
