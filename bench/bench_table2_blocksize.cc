// Table 2: read bandwidth and IOPS with file size varied on the SSD-class
// storage cluster. 16 closed-loop readers issue random whole-object reads of
// each size; the table reports aggregate bandwidth, files/second and
// 4K-IOPS-equivalent, next to the paper's measured values.
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/rng.h"
#include "net/fabric.h"
#include "ostore/mem_store.h"
#include "ostore/modeled_store.h"
#include "sim/calibration.h"

namespace diesel {
namespace {

struct PaperRow {
  uint64_t size_kb;
  double bw_mb;
  double files_per_sec;
};

// Paper Table 2 values for reference columns.
const PaperRow kPaper[] = {
    {1, 33.54, 34353.45},      {4, 128.28, 32841.47},
    {16, 464.44, 29724.48},    {64, 1317.04, 21072.64},
    {256, 2725.93, 10903.72},  {1024, 3104.26, 3104.26},
    {4096, 3197.68, 799.42},
};

void Run() {
  bench::Banner("Table 2: SSD cluster read bandwidth/IOPS vs file size");
  bench::Table table({"File Size(KB)", "Bandwidth(MB/s)", "Files/Second",
                      "4K-IOPS", "paper BW(MB/s)", "paper Files/s"});

  for (const PaperRow& row : kPaper) {
    sim::Cluster cluster(2);
    net::Fabric fabric(cluster);
    ostore::MemStore backing;
    ostore::ModeledStore store(fabric, 1, sim::SsdClusterSpec(), &backing);

    const uint64_t size = row.size_kb * 1024;
    // Bound resident bytes and per-run copies.
    const size_t num_objects = std::max<size_t>(8, (64 << 20) / size);
    sim::VirtualClock setup;
    SharedBytes blob = ShareBytes(Bytes(size, 0x5A));
    for (size_t i = 0; i < num_objects; ++i) {
      (void)backing.Put(setup, 0, "o" + std::to_string(i), blob);
    }

    const size_t kWorkers = 16;
    const size_t ops = std::max<size_t>(64, (256 << 20) / size / kWorkers);
    Rng rng(1234);
    std::vector<uint64_t> picks(kWorkers * ops);
    for (auto& p : picks) p = rng.Uniform(num_objects);

    size_t issued = 0;
    Nanos makespan = bench::DriveClosedLoop(
        kWorkers, ops, [&](size_t, sim::VirtualClock& clock) {
          uint64_t obj = picks[issued++ % picks.size()];
          auto r = store.Get(clock, 0, "o" + std::to_string(obj));
          if (!r.ok()) std::abort();
        });

    double secs = ToSeconds(makespan);
    double total_ops = static_cast<double>(kWorkers * ops);
    double files_per_sec = total_ops / secs;
    double bw_mb = files_per_sec * static_cast<double>(size) / 1e6;
    double iops4k = bw_mb * 1e6 / 4096.0;

    table.AddRow({std::to_string(row.size_kb), bench::Fmt("%.2f", bw_mb),
                  bench::Fmt("%.2f", files_per_sec),
                  bench::Fmt("%.2f", iops4k), bench::Fmt("%.2f", row.bw_mb),
                  bench::Fmt("%.2f", row.files_per_sec)});

    std::string tag = std::to_string(row.size_kb) + "kb";
    bench::Metric("bw_mb." + tag, "MB/s", bw_mb,
                  obs::Direction::kHigherIsBetter);
    bench::Metric("files_per_sec." + tag, "files/s", files_per_sec,
                  obs::Direction::kHigherIsBetter);
    bench::AddVirtualTime(makespan);
  }
  table.Print();
  std::printf("\nShape check: files/s flat for small sizes (per-op bound), "
              "bandwidth saturating near 3.2GB/s for 4MB reads.\n");
}

}  // namespace
}  // namespace diesel

int main() {
  diesel::bench::OpenReport("table2_blocksize", 1234);
  diesel::bench::Param("workers", 16.0);
  diesel::Run();
  return diesel::bench::CloseReport();
}
