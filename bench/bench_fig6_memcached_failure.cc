// Figure 6: reading speed of a global in-memory caching system (Memcached
// cluster) as instances fail. Clients read random file batches each
// iteration; at iteration 30 one instance is disabled and at iteration 70 a
// second. Misses redirect to the underlying Lustre filesystem, and a small
// miss fraction collapses throughput (paper: 5% misses cost ~90% of speed).
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/rng.h"
#include "lustre/lustre.h"
#include "memcache/memcache.h"

namespace diesel {
namespace {

constexpr size_t kMcNodes = 20;
constexpr size_t kClientNodes = 20;     // clients co-located, as in the paper
constexpr size_t kClientsPerNode = 16;  // as in the paper
constexpr size_t kFilesPerIteration = 32;   // scaled from 128 (iterations only set reporting granularity)
constexpr size_t kIterations = 100;
constexpr size_t kNumFiles = 40000;
constexpr uint64_t kFileSize = 4096;

void Run() {
  bench::Banner("Figure 6: Memcached-cluster reading speed under node "
                "failures (instances disabled at iterations 30 and 70)");

  sim::Cluster cluster(kMcNodes + 2);
  net::Fabric fabric(cluster);
  memcache::MemcacheOptions mc_opts;
  for (sim::NodeId n = 0; n < kMcNodes; ++n) mc_opts.nodes.push_back(n);
  memcache::MemcachedCluster mc(fabric, mc_opts);
  lustre::LustreFs lustre(fabric,
                          {.mds_node = kMcNodes, .oss_node = kMcNodes + 1});

  // Populate the dataset in both the cache (hot) and Lustre (backing).
  std::string payload(kFileSize, 'd');
  {
    sim::VirtualClock setup;
    for (size_t f = 0; f < kNumFiles; ++f) {
      std::string name = "/ds/f" + std::to_string(f);
      if (!mc.Set(setup, 0, name, payload).ok()) std::abort();
      if (!lustre.CreateSized(setup, 0, name, kFileSize).ok()) std::abort();
    }
  }

  const size_t kClients = kClientNodes * kClientsPerNode;
  Rng rng(31);
  bench::Table table({"iteration", "files/s", "hit ratio", "misses/iter"});

  Nanos epoch_start = 0;
  for (size_t iter = 0; iter < kIterations; ++iter) {
    if (iter == 30) mc.DisableInstance(3);
    if (iter == 70) mc.DisableInstance(11);

    size_t hits = 0, misses = 0;
    // Each client reads a random batch; all clients run concurrently.
    Nanos iter_end = bench::DriveClosedLoop(
        kClients, kFilesPerIteration,
        [&](size_t c, sim::VirtualClock& clock) {
          std::string name =
              "/ds/f" + std::to_string(rng.Uniform(kNumFiles));
          auto v = mc.Get(clock, static_cast<sim::NodeId>(c % kClientNodes),
                          name);
          if (v.ok()) {
            ++hits;
          } else {
            ++misses;
            // Miss: fall back to the shared filesystem.
            auto data = lustre.Read(
                clock, static_cast<sim::NodeId>(c % kClientNodes), name);
            if (!data.ok()) std::abort();
          }
        },
        epoch_start);

    double secs = ToSeconds(iter_end - epoch_start);
    double speed = static_cast<double>(kClients * kFilesPerIteration) / secs;
    double hit_ratio =
        static_cast<double>(hits) / static_cast<double>(hits + misses);
    if (iter % 10 == 0 || iter == 29 || iter == 31 || iter == 69 ||
        iter == 71) {
      table.AddRow({std::to_string(iter), bench::FmtCount(speed),
                    bench::Fmt("%.3f", hit_ratio),
                    bench::Fmt("%.1f", static_cast<double>(misses) / kClients)});
    }
    // The three plateaus of the figure: full-hit, one instance down, two.
    if (iter == 29 || iter == 69 || iter == 99) {
      bench::Metric("files_per_sec.iter" + std::to_string(iter), "files/s",
                    speed, obs::Direction::kHigherIsBetter);
      bench::Info("hit_ratio.iter" + std::to_string(iter), "frac", hit_ratio);
    }
    epoch_start = iter_end;
  }
  bench::AddVirtualTime(epoch_start);
  table.Print();
  std::printf("\nPaper shape: full-hit speed collapses by ~90%% once ~5%% of "
              "lookups miss (one instance of twenty disabled), and drops "
              "further after the second failure.\n");
}

}  // namespace
}  // namespace diesel

int main() {
  diesel::bench::OpenReport("fig6_memcached_failure", 31);
  diesel::bench::Param("mc_nodes", 20.0);
  diesel::Run();
  return diesel::bench::CloseReport();
}
