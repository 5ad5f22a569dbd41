// Ablation: the DIESEL server's request executor (§4: "sorts and merges
// small file requests to chunk-wise operations"). Sweeps the merge-gap
// threshold and the batch size, reporting storage ops per file and batch
// latency — including merge_gap=0 (sort-only) as the no-merge baseline.
#include <memory>

#include "bench/bench_util.h"
#include "core/deployment.h"
#include "dlt/dataset_gen.h"

namespace diesel {
namespace {

void Run() {
  bench::Banner("Ablation: request-executor merge gap and batch size");
  dlt::DatasetSpec spec;
  spec.name = "exec";
  spec.num_classes = 10;
  spec.files_per_class = 1000;
  spec.mean_file_bytes = 8 * 1024;
  spec.fixed_size = true;

  bench::Table table({"merge gap", "batch", "storage ops/batch",
                      "batch latency (ms)", "vs no-merge"});
  for (uint64_t gap : {uint64_t{0}, uint64_t{16 << 10}, uint64_t{64 << 10},
                       uint64_t{512 << 10}}) {
    for (size_t batch_size : {32u, 256u}) {
      core::DeploymentOptions opts;
      core::Deployment dep(opts);
      auto writer = dep.MakeClient(0, 0, spec.name);
      if (!dlt::ForEachFile(spec, [&](const dlt::GeneratedFile& f) {
            return writer->Put(f.path, f.content);
          }).ok() ||
          !writer->Flush().ok()) {
        std::abort();
      }
      dep.ResetDevices();
      // Rebuild the server with the merge gap under test.
      core::ServerOptions so;
      so.node = dep.server_node(0);
      so.merge_gap_bytes = gap;
      core::DieselServer server(dep.fabric(), dep.kv(), dep.store(), so);

      Rng rng(9);
      sim::VirtualClock clock;
      uint64_t ops_before = dep.store().device().ops_served();
      const int kBatches = 20;
      for (int b = 0; b < kBatches; ++b) {
        std::vector<std::string> paths;
        for (size_t i = 0; i < batch_size; ++i) {
          paths.push_back(
              dlt::FilePath(spec, rng.Uniform(spec.total_files())));
        }
        auto r = server.ReadFiles(clock, 0, spec.name, paths);
        if (!r.ok()) std::abort();
      }
      double ops_per_batch =
          static_cast<double>(dep.store().device().ops_served() -
                              ops_before) /
          kBatches;
      double latency_ms = ToMillis(clock.now()) / kBatches;
      static double no_merge_ref = 0;
      if (gap == 0 && batch_size == 256) no_merge_ref = latency_ms;
      table.AddRow({gap == 0 ? "0 (sort only)"
                             : bench::FmtCount(static_cast<double>(gap)),
                    std::to_string(batch_size),
                    bench::Fmt("%.1f", ops_per_batch),
                    bench::Fmt("%.2f", latency_ms),
                    (no_merge_ref > 0 && batch_size == 256)
                        ? bench::Fmt("%.2fx", no_merge_ref / latency_ms)
                        : "-"});
      std::string tag =
          "g" + std::to_string(gap >> 10) + "kb.b" + std::to_string(batch_size);
      bench::Metric("ops_per_batch." + tag, "ops", ops_per_batch,
                    obs::Direction::kLowerIsBetter);
      bench::Metric("batch_latency_ms." + tag, "ms", latency_ms,
                    obs::Direction::kLowerIsBetter);
      bench::AddVirtualTime(clock.now());
    }
  }
  table.Print();
  std::printf("\nSorting by (chunk, offset) plus gap merging turns dozens of "
              "random small reads into a handful of chunk-range reads; past "
              "a point, widening the gap trades wasted bytes for fewer "
              "ops.\n");
}

}  // namespace
}  // namespace diesel

int main() {
  diesel::bench::OpenReport("ablation_executor", 9);
  diesel::bench::Param("batches", 20.0);
  diesel::Run();
  return diesel::bench::CloseReport();
}
