// Figure 9: write throughput for 4KB and 128KB files on 4 nodes x 16
// processes (64 writers): DIESEL vs Memcached cluster vs Lustre.
//
// DIESEL clients aggregate files into >=4MB chunks and flush in batches;
// Memcached pays one RPC per item (libMemcached has no batch write);
// Lustre pays an MDS create transaction per file.
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "core/deployment.h"
#include "lustre/lustre.h"
#include "memcache/memcache.h"

namespace diesel {
namespace {

constexpr size_t kNodes = 4;
constexpr size_t kProcsPerNode = 16;
constexpr size_t kWriters = kNodes * kProcsPerNode;

double DieselWrite(uint64_t file_size, size_t files_per_writer) {
  core::DeploymentOptions opts;
  opts.num_client_nodes = kNodes;
  // Several DIESEL servers spread the ingest traffic (as in the paper's
  // deployment, cf. the 1/3/5-server scaling of Fig. 10a).
  opts.num_servers = 4;
  core::Deployment dep(opts);
  std::vector<std::unique_ptr<core::DieselClient>> writers;
  for (size_t w = 0; w < kWriters; ++w) {
    writers.push_back(dep.MakeClient(w % kNodes,
                                     static_cast<uint32_t>(w / kNodes),
                                     "fig9"));
  }
  Bytes content(file_size, 0x42);
  // Closed loop scheduled by the clients' own clocks (the client owns its
  // virtual clock, unlike the raw-backend benches below).
  std::vector<size_t> done(kWriters, 0);
  sim::DriveEarliestFirst(
      kWriters, [&](size_t w) { return writers[w]->clock().now(); },
      [&](size_t w) {
        if (done[w] == files_per_writer) return false;
        Status st = writers[w]->Put("/fig9/w" + std::to_string(w) + "/f" +
                                        std::to_string(done[w]++),
                                    content);
        if (!st.ok()) std::abort();
        return true;
      });
  // Flush the partial chunks; the write completes when every chunk is
  // durable server-side (write-behind), so the makespan is the latest
  // durability time across writers.
  Nanos end = 0;
  for (auto& w : writers) {
    if (!w->Flush().ok()) std::abort();
    end = std::max(end, w->stats().last_ingest_durable_ns);
    end = std::max(end, w->clock().now());
  }
  return static_cast<double>(kWriters * files_per_writer) / ToSeconds(end);
}

double MemcachedWrite(uint64_t file_size, size_t files_per_writer) {
  sim::Cluster cluster(kNodes + 10);
  net::Fabric fabric(cluster);
  memcache::MemcacheOptions opts;
  for (sim::NodeId n = kNodes; n < kNodes + 10; ++n) opts.nodes.push_back(n);
  memcache::MemcachedCluster mc(fabric, opts);
  std::string content(file_size, 'x');
  std::vector<size_t> seq(kWriters, 0);
  Nanos makespan = bench::DriveClosedLoop(
      kWriters, files_per_writer, [&](size_t w, sim::VirtualClock& clock) {
        Status st = mc.Set(clock, static_cast<sim::NodeId>(w % kNodes),
                           "w" + std::to_string(w) + "/" +
                               std::to_string(seq[w]++),
                           content);
        if (!st.ok()) std::abort();
      });
  return static_cast<double>(kWriters * files_per_writer) /
         ToSeconds(makespan);
}

double LustreWrite(uint64_t file_size, size_t files_per_writer) {
  sim::Cluster cluster(kNodes + 2);
  net::Fabric fabric(cluster);
  lustre::LustreFs fs(fabric, {.mds_node = kNodes, .oss_node = kNodes + 1});
  std::vector<size_t> seq(kWriters, 0);
  Nanos makespan = bench::DriveClosedLoop(
      kWriters, files_per_writer, [&](size_t w, sim::VirtualClock& clock) {
        Status st = fs.CreateSized(clock, static_cast<sim::NodeId>(w % kNodes),
                                   "/fig9/w" + std::to_string(w) + "/f" +
                                       std::to_string(seq[w]++),
                                   file_size);
        if (!st.ok()) std::abort();
      });
  return static_cast<double>(kWriters * files_per_writer) /
         ToSeconds(makespan);
}

void Run() {
  bench::Banner("Figure 9: file write throughput, 64 writers on 4 nodes");
  bench::Table table({"File size", "DIESEL (files/s)", "Memcached (files/s)",
                      "Lustre (files/s)", "DIESEL/Lustre", "DIESEL/Memcached"});
  struct Config {
    const char* label;
    uint64_t size;
    size_t diesel_files;
    size_t other_files;
  };
  // Writer counts scaled per system so runs stay fast; throughput is
  // steady-state so counts do not change the rates.
  const Config configs[] = {{"4KB", 4 * 1024, 4000, 400},
                            {"128KB", 128 * 1024, 800, 200}};
  for (const Config& c : configs) {
    double diesel = DieselWrite(c.size, c.diesel_files);
    double mc = MemcachedWrite(c.size, c.other_files);
    double lustre = LustreWrite(c.size, c.other_files);
    table.AddRow({c.label, bench::FmtCount(diesel), bench::FmtCount(mc),
                  bench::FmtCount(lustre), bench::Fmt("%.1fx", diesel / lustre),
                  bench::Fmt("%.1fx", diesel / mc)});
    std::string tag = c.label;
    bench::Metric("diesel_files_per_sec." + tag, "files/s", diesel,
                  obs::Direction::kHigherIsBetter);
    bench::Metric("memcached_files_per_sec." + tag, "files/s", mc,
                  obs::Direction::kHigherIsBetter);
    bench::Metric("lustre_files_per_sec." + tag, "files/s", lustre,
                  obs::Direction::kHigherIsBetter);
  }
  table.Print();
  std::printf("\nPaper: 4KB DIESEL >2M files/s, 1.79x over Memcached, 366.7x "
              "over Lustre; 128KB: 17.3x over Memcached, 127.3x over Lustre.\n");
}

}  // namespace
}  // namespace diesel

int main() {
  diesel::bench::OpenReport("fig9_write", 0);
  diesel::bench::Param("writers", 64.0);
  diesel::Run();
  return diesel::bench::CloseReport();
}
