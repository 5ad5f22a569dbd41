// Figure 10a: metadata QPS (file-size lookups through DIESEL servers) as
// client nodes grow from 1 to 10, for 1 / 3 / 5 DIESEL servers. With few
// servers the server service loop saturates early; with more servers the
// curve climbs until the KV tier's ~1M QPS ceiling.
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "core/deployment.h"
#include "dlt/dataset_gen.h"
#include "obs/hotspot.h"

namespace diesel {
namespace {

constexpr size_t kThreadsPerNode = 16;
constexpr size_t kOpsPerThread = 150;
constexpr size_t kMaxNodes = 10;

double MeasureQps(size_t num_servers, size_t client_nodes,
                  const dlt::DatasetSpec& spec, Nanos* end_out = nullptr) {
  core::DeploymentOptions opts;
  opts.num_client_nodes = kMaxNodes;
  opts.num_servers = num_servers;
  core::Deployment dep(opts);

  // Ingest once (metadata only matters; tiny files).
  auto writer = dep.MakeClient(0, 99, spec.name, 64 * 1024);
  if (!dlt::ForEachFile(spec, [&](const dlt::GeneratedFile& f) {
        return writer->Put(f.path, f.content);
      }).ok() ||
      !writer->Flush().ok()) {
    std::abort();
  }

  size_t num_clients = client_nodes * kThreadsPerNode;
  std::vector<std::unique_ptr<core::DieselClient>> clients;
  for (size_t c = 0; c < num_clients; ++c) {
    clients.push_back(dep.MakeClient(c % client_nodes,
                                     static_cast<uint32_t>(c / client_nodes),
                                     spec.name));
  }

  Rng rng(17);
  std::vector<size_t> done(num_clients, 0);
  Nanos end = sim::DriveEarliestFirst(
      num_clients, [&](size_t c) { return clients[c]->clock().now(); },
      [&](size_t c) {
        if (done[c] == kOpsPerThread) return false;
        size_t file = rng.Uniform(spec.total_files());
        if (!clients[c]->Stat(dlt::FilePath(spec, file)).ok()) std::abort();
        ++done[c];
        return true;
      });
  if (end_out != nullptr) *end_out = end;
  return static_cast<double>(num_clients * kOpsPerThread) / ToSeconds(end);
}

void Run() {
  bench::Banner(
      "Figure 10a: metadata QPS vs client nodes for 1/3/5 DIESEL servers");
  dlt::DatasetSpec spec;
  spec.name = "f10a";
  spec.num_classes = 10;
  spec.files_per_class = 200;
  spec.mean_file_bytes = 256;

  bench::Table table({"client nodes", "1 server", "3 servers", "5 servers"});
  for (size_t nodes = 1; nodes <= kMaxNodes; ++nodes) {
    std::vector<std::string> row{std::to_string(nodes)};
    for (size_t servers : {1u, 3u, 5u}) {
      double qps = MeasureQps(servers, nodes, spec);
      row.push_back(bench::FmtCount(qps));
      bench::Metric("qps.s" + std::to_string(servers) + ".n" +
                        std::to_string(nodes),
                    "qps", qps, obs::Direction::kHigherIsBetter);
    }
    table.AddRow(std::move(row));
  }
  table.Print();
  std::printf(
      "\nPaper shape: 1 server flattens from ~2 client nodes; 3 servers from "
      "~7 nodes; 5 servers approach the KV ceiling (~0.97M QPS).\n");

  // Dedicated hotspot profile, run last on a clean registry so the report's
  // embedded telemetry reflects exactly this pass: 1 server under the full
  // client fleet is well past the saturation knee, and `dlcmd hotspots` on
  // the report must rank the metadata-server service device top. The sweep
  // above accumulated counters across 30 deployments whose virtual clocks
  // all restarted at zero; without the reset those overlapping busy windows
  // make the derived utilizations meaningless.
  obs::Metrics().ResetAll();
  Nanos window = 0;
  double qps = MeasureQps(1, kMaxNodes, spec, &window);
  bench::Info("hotspot.profile.qps", "qps", qps);
  obs::ClusterView view = bench::ExportClusterUtil(window);
  bench::MetricImbalance("cluster.imbalance", view);
  obs::HotspotReport hotspots =
      obs::HotspotReport::Build(view, obs::Metrics().Snapshot());
  std::printf("\nHotspot profile (1 server, %zu client nodes, past knee):\n%s",
              kMaxNodes, hotspots.Render(8).c_str());
  // Past the knee the metadata server must be the top hotspot: its NIC and
  // service loop trade places depending on calibration, but the charged
  // node is the server's either way.
  core::DeploymentOptions layout;
  layout.num_client_nodes = kMaxNodes;
  std::string server_node =
      "n" + std::to_string(kMaxNodes + 1 + layout.num_kv_nodes);
  if (hotspots.entries().empty()) std::abort();
  const obs::HotspotEntry& top = hotspots.entries().front();
  if (top.resource.node != server_node) {
    std::fprintf(stderr,
                 "FAIL: expected a metadata-server (%s) device as top "
                 "hotspot, got '%s' on %s\n",
                 server_node.c_str(), top.resource.name.c_str(),
                 top.resource.node.c_str());
    std::abort();
  }
  if (view.imbalance().max_node != server_node) {
    std::fprintf(stderr, "FAIL: hottest node %s is not the server %s\n",
                 view.imbalance().max_node.c_str(), server_node.c_str());
    std::abort();
  }
}

}  // namespace
}  // namespace diesel

int main() {
  diesel::bench::OpenReport("fig10a_metadata_servers", 17);
  diesel::bench::Param("threads_per_node", 16.0);
  diesel::Run();
  return diesel::bench::CloseReport();
}
