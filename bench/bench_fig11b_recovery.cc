// Figure 11b: cache loading/recovery time on an ImageNet-1K-like dataset.
//
// DIESEL reloads whole >=4MB chunks with parallel fetch streams per task
// node (0% -> 100% hit ratio). The Memcached cluster starts at 80% (a cold
// start "will be excessively long", §6.4) and refills ON DEMAND: the
// training clients keep reading random files, each miss loads one file from
// Lustre — so completing the refill is a coupon-collector process over the
// missing 20% and takes far longer than the miss count alone suggests.
#include <memory>
#include <vector>

#include "bench/bench_util.h"
#include "cache/registry.h"
#include "cache/task_cache.h"
#include "core/deployment.h"
#include "dlt/dataset_gen.h"
#include "lustre/lustre.h"
#include "memcache/memcache.h"

namespace diesel {
namespace {

// Scaled ImageNet-1K: 16k files x ~56KB ~= 0.9GB (1/80 of the real dataset).
constexpr size_t kFiles = 16000;
constexpr uint64_t kMeanSize = 56 * 1024;

void Run() {
  bench::Banner("Figure 11b: cache load/recovery time (scaled ImageNet-1K: "
                "16k files, ~0.9GB)");
  dlt::DatasetSpec spec;
  spec.name = "f11b";
  spec.num_classes = 100;
  spec.files_per_class = kFiles / 100;
  spec.mean_file_bytes = kMeanSize;

  // ---- DIESEL: chunk-granular parallel reload over 4 task nodes ------------
  core::DeploymentOptions opts;
  opts.num_client_nodes = 4;
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
  for (uint32_t n = 0; n < 4; ++n) {
    clients.push_back(dep.MakeClient(n, 0, spec.name));
    registry.Register(clients.back()->endpoint());
  }
  if (!clients[0]->FetchSnapshot().ok()) std::abort();
  const core::MetadataSnapshot& snap = *clients[0]->snapshot();
  cache::TaskCache cache(dep.fabric(), dep.server(0), snap, registry,
                         {.policy = cache::CachePolicy::kOneshot});
  auto load_end = cache.Preload(0);
  if (!load_end.ok()) std::abort();
  std::printf("\nDIESEL task-grained cache: full dataset (%zu chunks) loaded "
              "in %.2fs virtual; hit ratio 1.00\n", snap.chunks().size(),
              ToSeconds(load_end.value()));

  // ---- Memcached: on-demand refill through random training reads ----------
  std::printf("\nMemcached cluster: on-demand refill of the lost 20%% while "
              "64 clients keep reading random files\n");
  sim::Cluster mcluster(12);
  net::Fabric mfabric(mcluster);
  memcache::MemcacheOptions mc_opts;
  for (sim::NodeId n = 0; n < 10; ++n) mc_opts.nodes.push_back(n);
  memcache::MemcachedCluster mc(mfabric, mc_opts);
  lustre::LustreFs lustre(mfabric, {.mds_node = 10, .oss_node = 11});
  std::vector<bool> cached(kFiles, false);
  {
    sim::VirtualClock setup;
    for (size_t i = 0; i < kFiles; ++i) {
      std::string path = dlt::FilePath(spec, i);
      if (!lustre.CreateSized(setup, 0, path, kMeanSize).ok()) std::abort();
      if (i % 5 != 0) {  // 80% already cached
        if (!mc.Set(setup, 0, path, std::string(kMeanSize, 'x')).ok())
          std::abort();
        cached[i] = true;
      }
    }
  }

  bench::Table mc_table({"elapsed (s)", "hit ratio", "reads issued"});
  {
    const size_t kClients = 64;
    size_t missing = kFiles / 5;
    size_t reads = 0;
    Rng rng(19);
    std::vector<sim::VirtualClock> clocks(kClients);
    size_t next_report_pct = 82;
    Nanos end = 0;
    // Clients issue random reads until no file is missing.
    sim::DriveEarliestFirst(
        kClients, [&](size_t c) { return clocks[c].now(); },
        [&](size_t c) {
          if (missing == 0) return false;
          size_t f = rng.Uniform(kFiles);
          std::string path = dlt::FilePath(spec, f);
          ++reads;
          auto v = mc.Get(clocks[c], static_cast<sim::NodeId>(c % 10), path);
          if (!v.ok()) {
            auto data =
                lustre.Read(clocks[c], static_cast<sim::NodeId>(c % 10), path);
            if (!data.ok()) std::abort();
            if (!cached[f]) {
              if (!mc.Set(clocks[c], static_cast<sim::NodeId>(c % 10), path,
                          std::string(kMeanSize, 'x')).ok()) {
                std::abort();
              }
              cached[f] = true;
              --missing;
            }
          }
          end = std::max(end, clocks[c].now());
          double ratio = 1.0 - static_cast<double>(missing) /
                                   static_cast<double>(kFiles);
          if (ratio * 100 >= static_cast<double>(next_report_pct)) {
            mc_table.AddRow({bench::Fmt("%.2f", ToSeconds(end)),
                             bench::Fmt("%.3f", ratio),
                             bench::FmtCount(reads)});
            next_report_pct += 2;
          }
          return true;
        });
    mc_table.Print();
    std::printf("Memcached reached 100%% after %.2fs and %s random reads "
                "(coupon-collector tail: the last missing files are only "
                "refilled when randomly touched)\n",
                ToSeconds(end), bench::FmtCount(reads).c_str());
    std::printf("\nRecovery-time ratio (full DIESEL load vs 20%% memcached "
                "refill): %.1fx in favour of DIESEL despite loading 5x the "
                "data. At paper scale (1.28M files) the collector factor "
                "grows with N ln N, giving the >10x gap of Fig. 11b.\n",
                ToSeconds(end) / ToSeconds(load_end.value()));
    bench::Metric("diesel_load_s", "s", ToSeconds(load_end.value()),
                  obs::Direction::kLowerIsBetter);
    bench::Metric("memcached_refill_s", "s", ToSeconds(end),
                  obs::Direction::kLowerIsBetter);
    bench::Metric("refill_ratio", "x",
                  ToSeconds(end) / ToSeconds(load_end.value()),
                  obs::Direction::kHigherIsBetter);
    bench::Info("memcached_refill_reads", "reads",
                static_cast<double>(reads));
    bench::AddVirtualTime(load_end.value() + end);
  }
}

}  // namespace
}  // namespace diesel

int main() {
  diesel::bench::OpenReport("fig11b_recovery", 19);
  diesel::bench::Param("files", 16000.0);
  diesel::Run();
  return diesel::bench::CloseReport();
}
