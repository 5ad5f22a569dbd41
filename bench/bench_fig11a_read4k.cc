// Figure 11a: random 4KB file read QPS versus client count for
// DIESEL-API (task-grained cache), DIESEL-FUSE, the Memcached cluster, and
// Lustre. All caches pre-warmed; 16 threads per client node, 1-10 nodes.
#include <memory>
#include <vector>

#include "bench/bench_util.h"
#include "cache/registry.h"
#include "cache/task_cache.h"
#include "core/deployment.h"
#include "dlt/dataset_gen.h"
#include "fusefs/fusefs.h"
#include "lustre/lustre.h"
#include "memcache/memcache.h"

namespace diesel {
namespace {

constexpr size_t kMaxNodes = 10;
constexpr size_t kThreadsPerNode = 16;
constexpr size_t kOps = 120;  // per thread
constexpr uint64_t kFileSize = 4096;

dlt::DatasetSpec Spec() {
  dlt::DatasetSpec spec;
  spec.name = "f11a";
  spec.num_classes = 10;
  spec.files_per_class = 2000;
  spec.mean_file_bytes = kFileSize;
  spec.fixed_size = true;
  return spec;
}

// DIESEL deployment with dataset ingested and snapshot built once.
struct DieselRig {
  explicit DieselRig(const dlt::DatasetSpec& spec) {
    core::DeploymentOptions opts;
    opts.num_client_nodes = kMaxNodes;
    dep = std::make_unique<core::Deployment>(opts);
    auto writer = dep->MakeClient(0, 99, spec.name);
    if (!dlt::ForEachFile(spec, [&](const dlt::GeneratedFile& f) {
          return writer->Put(f.path, f.content);
        }).ok() ||
        !writer->Flush().ok()) {
      std::abort();
    }
  }
  std::unique_ptr<core::Deployment> dep;
};

double DieselQps(DieselRig& rig, const dlt::DatasetSpec& spec, size_t nodes,
                 bool fuse) {
  // Fresh virtual-time state for this sweep point (same dataset, no reingest).
  rig.dep->ResetDevices();
  std::vector<std::unique_ptr<core::DieselClient>> clients;
  cache::TaskRegistry registry;
  size_t num_clients = nodes * kThreadsPerNode;
  for (size_t c = 0; c < num_clients; ++c) {
    clients.push_back(rig.dep->MakeClient(
        c % nodes, static_cast<uint32_t>(1000 + c / nodes), spec.name));
    registry.Register(clients.back()->endpoint());
    if (!clients.back()->FetchSnapshot().ok()) std::abort();
    clients.back()->clock().Reset(0);
  }
  cache::TaskCache cache(rig.dep->fabric(), rig.dep->server(0),
                         *clients[0]->snapshot(), registry,
                         {.policy = cache::CachePolicy::kOneshot});
  cache.EstablishConnections();
  if (!cache.Preload(0).ok()) std::abort();
  std::vector<std::unique_ptr<core::DatasetCacheInterface>> handles;
  for (auto& c : clients) {
    handles.push_back(cache.HandleFor(c->endpoint()));
    c->AttachCache(handles.back().get());
    c->clock().Reset(0);
  }

  std::vector<std::unique_ptr<fusefs::FuseMount>> mounts;
  if (fuse) {
    // One mount per node over that node's daemon clients.
    for (size_t n = 0; n < nodes; ++n) {
      std::vector<core::DieselClient*> daemon;
      for (size_t c = 0; c < num_clients; ++c) {
        if (c % nodes == n) daemon.push_back(clients[c].get());
      }
      mounts.push_back(std::make_unique<fusefs::FuseMount>(daemon));
    }
  }

  Rng rng(7);
  std::vector<uint64_t> picks(num_clients * kOps);
  for (auto& p : picks) p = rng.Uniform(spec.total_files());
  size_t issued = 0;

  if (fuse) {
    Nanos end = bench::DriveClosedLoop(
        num_clients, kOps, [&](size_t c, sim::VirtualClock& clock) {
          auto r = mounts[c % nodes]->ReadFile(
              clock, dlt::FilePath(spec, picks[issued++]));
          if (!r.ok()) std::abort();
        });
    return static_cast<double>(num_clients * kOps) / ToSeconds(end);
  }

  // DIESEL-API: drive by the clients' own clocks.
  std::vector<size_t> done(num_clients, 0);
  Nanos end = sim::DriveEarliestFirst(
      num_clients, [&](size_t c) { return clients[c]->clock().now(); },
      [&](size_t c) {
        if (done[c] == kOps) return false;
        auto r = clients[c]->Get(dlt::FilePath(spec, picks[issued++]));
        if (!r.ok()) std::abort();
        ++done[c];
        return true;
      });
  return static_cast<double>(num_clients * kOps) / ToSeconds(end);
}

double MemcachedQps(const dlt::DatasetSpec& spec, size_t nodes) {
  sim::Cluster cluster(kMaxNodes);
  net::Fabric fabric(cluster);
  memcache::MemcacheOptions opts;
  for (sim::NodeId n = 0; n < kMaxNodes; ++n) opts.nodes.push_back(n);
  memcache::MemcachedCluster mc(fabric, opts);
  {
    sim::VirtualClock setup;
    std::string payload(kFileSize, 'x');
    for (size_t i = 0; i < spec.total_files(); ++i) {
      if (!mc.Set(setup, 0, dlt::FilePath(spec, i), payload).ok()) std::abort();
    }
  }
  size_t num_clients = nodes * kThreadsPerNode;
  Rng rng(9);
  Nanos end = bench::DriveClosedLoop(
      num_clients, kOps, [&](size_t c, sim::VirtualClock& clock) {
        auto r = mc.Get(clock, static_cast<sim::NodeId>(c % nodes),
                        dlt::FilePath(spec, rng.Uniform(spec.total_files())));
        if (!r.ok()) std::abort();
      });
  return static_cast<double>(num_clients * kOps) / ToSeconds(end);
}

double LustreQps(const dlt::DatasetSpec& spec, size_t nodes) {
  sim::Cluster cluster(kMaxNodes + 2);
  net::Fabric fabric(cluster);
  lustre::LustreFs fs(fabric,
                      {.mds_node = kMaxNodes, .oss_node = kMaxNodes + 1});
  {
    sim::VirtualClock setup;
    for (size_t i = 0; i < spec.total_files(); ++i) {
      if (!fs.CreateSized(setup, 0, dlt::FilePath(spec, i), kFileSize).ok())
        std::abort();
    }
  }
  size_t num_clients = nodes * kThreadsPerNode;
  Rng rng(11);
  Nanos end = bench::DriveClosedLoop(
      num_clients, kOps, [&](size_t c, sim::VirtualClock& clock) {
        auto r = fs.Read(clock, static_cast<sim::NodeId>(c % nodes),
                         dlt::FilePath(spec, rng.Uniform(spec.total_files())));
        if (!r.ok()) std::abort();
      });
  return static_cast<double>(num_clients * kOps) / ToSeconds(end);
}

void Run() {
  bench::Banner("Figure 11a: 4KB random-read QPS vs client nodes "
                "(16 threads/node)");
  dlt::DatasetSpec spec = Spec();
  DieselRig rig(spec);

  bench::Table table({"nodes", "DIESEL-API", "DIESEL-FUSE", "Memcached",
                      "Lustre"});
  for (size_t nodes : {1u, 2u, 4u, 6u, 8u, 10u}) {
    double api = DieselQps(rig, spec, nodes, false);
    double fuse = DieselQps(rig, spec, nodes, true);
    double mc = MemcachedQps(spec, nodes);
    double lustre = LustreQps(spec, nodes);
    table.AddRow({std::to_string(nodes), bench::FmtCount(api),
                  bench::FmtCount(fuse), bench::FmtCount(mc),
                  bench::FmtCount(lustre)});
    std::string tag = ".n" + std::to_string(nodes);
    bench::Metric("qps.api" + tag, "qps", api,
                  obs::Direction::kHigherIsBetter);
    bench::Metric("qps.fuse" + tag, "qps", fuse,
                  obs::Direction::kHigherIsBetter);
    bench::Metric("qps.memcached" + tag, "qps", mc,
                  obs::Direction::kHigherIsBetter);
    bench::Metric("qps.lustre" + tag, "qps", lustre,
                  obs::Direction::kHigherIsBetter);
  }
  table.Print();
  std::printf("\nPaper at 10 nodes: DIESEL-API >1.2M QPS, DIESEL-FUSE ~800k "
              "(>60%% of API), Memcached ~560k, Lustre ~40k.\n");
}

}  // namespace
}  // namespace diesel

int main() {
  diesel::bench::OpenReport("fig11a_read4k", 7);
  diesel::bench::Param("threads_per_node", 16.0);
  diesel::bench::Param("file_size", 4096.0);
  diesel::Run();
  return diesel::bench::CloseReport();
}
