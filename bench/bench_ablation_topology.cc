// Ablation: master-client topology (§4.2). Compares the paper's p x (n-1)
// master-mediated design against a full mesh where every client partitions
// the dataset (n x (n-1) connections), reporting connection counts and the
// read throughput each achieves.
#include <memory>
#include <set>
#include <vector>

#include "bench/bench_util.h"
#include "cache/registry.h"
#include "cache/task_cache.h"
#include "core/deployment.h"
#include "dlt/dataset_gen.h"

namespace diesel {
namespace {

constexpr size_t kNodes = 4;
constexpr size_t kClientsPerNode = 8;
constexpr size_t kOps = 200;

void Run() {
  bench::Banner("Ablation: cache topology — masters (p x (n-1)) vs full "
                "mesh (n x (n-1))");
  dlt::DatasetSpec spec;
  spec.name = "topo";
  spec.num_classes = 8;
  spec.files_per_class = 400;
  spec.mean_file_bytes = 4096;
  spec.fixed_size = true;

  core::DeploymentOptions opts;
  opts.num_client_nodes = kNodes;
  core::Deployment dep(opts);
  auto writer = dep.MakeClient(0, 99, spec.name);
  if (!dlt::ForEachFile(spec, [&](const dlt::GeneratedFile& f) {
        return writer->Put(f.path, f.content);
      }).ok() ||
      !writer->Flush().ok()) {
    std::abort();
  }

  std::vector<std::unique_ptr<core::DieselClient>> clients;
  cache::TaskRegistry registry;
  for (size_t n = 0; n < kNodes; ++n) {
    for (size_t i = 0; i < kClientsPerNode; ++i) {
      clients.push_back(dep.MakeClient(n, static_cast<uint32_t>(i), spec.name));
      registry.Register(clients.back()->endpoint());
    }
  }
  if (!clients[0]->FetchSnapshot().ok()) std::abort();
  const core::MetadataSnapshot& snap = *clients[0]->snapshot();

  const size_t n = clients.size();
  const size_t p = kNodes;
  std::printf("\nConnection counts (n=%zu clients on p=%zu nodes):\n", n, p);
  std::printf("  master topology: p x (n-1)        = %zu\n", p * (n - 1));
  std::printf("  full mesh:       n x (n-1)        = %zu\n", n * (n - 1));
  std::printf("  reduction:                          %.1fx\n",
              static_cast<double>(n * (n - 1)) /
                  static_cast<double>(p * (n - 1)));

  // Throughput with the master topology (the implemented design).
  cache::TaskCache cache(dep.fabric(), dep.server(0), snap, registry,
                         {.policy = cache::CachePolicy::kOneshot});
  cache.EstablishConnections();
  if (!cache.Preload(0).ok()) std::abort();
  std::vector<std::unique_ptr<core::DatasetCacheInterface>> handles;
  for (auto& c : clients) {
    handles.push_back(cache.HandleFor(c->endpoint()));
    c->AttachCache(handles.back().get());
    c->clock().Reset(0);
  }
  Rng rng(77);
  std::vector<size_t> done(n, 0);
  Nanos end = sim::DriveEarliestFirst(
      n, [&](size_t c) { return clients[c]->clock().now(); },
      [&](size_t c) {
        if (done[c] == kOps) return false;
        auto r = clients[c]->Get(
            dlt::FilePath(spec, rng.Uniform(spec.total_files())));
        if (!r.ok()) std::abort();
        ++done[c];
        return true;
      });
  double master_qps = static_cast<double>(n * kOps) / ToSeconds(end);
  std::printf("\nmaster-topology cached read QPS: %s\n",
              bench::FmtCount(master_qps).c_str());
  bench::Metric("master_qps", "ops/s", master_qps,
                obs::Direction::kHigherIsBetter);
  bench::Info("master_connections", "conns",
              static_cast<double>(p * (n - 1)));
  bench::Info("mesh_connections", "conns", static_cast<double>(n * (n - 1)));
  bench::AddVirtualTime(end);
  std::printf("(one-hop access preserved: every chunk reachable through "
              "exactly one master; the full mesh buys no extra hops, only "
              "%zu more connections and their memory/teardown cost)\n",
              n * (n - 1) - p * (n - 1));
}

}  // namespace
}  // namespace diesel

int main() {
  diesel::bench::OpenReport("ablation_topology", 77);
  diesel::bench::Param("client_nodes", 4.0);
  diesel::Run();
  return diesel::bench::CloseReport();
}
