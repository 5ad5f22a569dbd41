// Fault-recovery walkthrough: the two §4.1.2 failure scenarios plus
// task-grained cache recovery.
//
//  (a) one metadata shard dies and restarts empty -> watermark recovery
//      rebuilds it by scanning chunk headers written since the watermark;
//  (b) the whole in-memory KV tier is lost -> full ordered chunk scan
//      rebuilds everything (chunks are self-contained);
//  (c) a task node dies -> only this task's cache partition is lost, and the
//      chunk-granular reload restores it quickly.
//
// Run: ./fault_recovery
#include <cstdio>

#include "cache/registry.h"
#include "cache/task_cache.h"
#include "core/deployment.h"
#include "dlt/dataset_gen.h"

using namespace diesel;

int main() {
  core::DeploymentOptions options;
  options.num_client_nodes = 4;
  core::Deployment deployment(options);

  dlt::DatasetSpec spec;
  spec.name = "recover";
  spec.num_classes = 4;
  spec.files_per_class = 100;
  spec.mean_file_bytes = 4096;

  auto writer = deployment.MakeClient(0, 0, spec.name, 64 * 1024);
  auto status = dlt::ForEachFile(spec, [&](const dlt::GeneratedFile& f) {
    return writer->Put(f.path, f.content);
  });
  if (!status.ok() || !writer->Flush().ok()) return 1;
  std::printf("ingested %zu files, KV holds %zu keys\n", spec.total_files(),
              deployment.kv().TotalKeys());

  // --- scenario (a): one shard lost ----------------------------------------
  size_t keys_before = deployment.kv().TotalKeys();
  deployment.kv().FailShard(2);
  deployment.kv().RestartShard(2);
  std::printf("\n(a) shard 2 crashed and restarted empty: %zu keys lost\n",
              keys_before - deployment.kv().TotalKeys());
  sim::VirtualClock admin;
  auto stats = deployment.server(0).RecoverMetadata(admin, spec.name,
                                                    /*from_ts_sec=*/0);
  if (!stats.ok()) return 1;
  std::printf("    recovered %zu files from %zu chunk headers (%llu header "
              "bytes read) in %.3fs virtual\n",
              stats->files_recovered, stats->chunks_scanned,
              static_cast<unsigned long long>(stats->header_bytes_read),
              ToSeconds(admin.now()));
  std::printf("    KV restored to %zu keys\n", deployment.kv().TotalKeys());

  // --- scenario (b): total KV loss ------------------------------------------
  for (uint32_t s = 0; s < deployment.kv().NumShards(); ++s) {
    deployment.kv().FailShard(s);
    deployment.kv().RestartShard(s);
  }
  std::printf("\n(b) datacenter power loss: KV tier empty (%zu keys)\n",
              deployment.kv().TotalKeys());
  admin.Reset();
  stats = deployment.server(0).RecoverMetadata(admin, spec.name, 0);
  if (!stats.ok()) return 1;
  std::printf("    full scan rebuilt %zu keys in %.3fs virtual; reads work:",
              deployment.kv().TotalKeys(), ToSeconds(admin.now()));
  auto probe = deployment.MakeClient(1, 0, spec.name);
  auto content = probe->Get(dlt::FilePath(spec, 42));
  if (!content.ok() || !dlt::VerifyContent(spec, 42, content.value()))
    return 1;
  std::printf(" file 42 verified\n");

  // --- scenario (c): task cache node failure --------------------------------
  cache::TaskRegistry registry;
  std::vector<std::unique_ptr<core::DieselClient>> clients;
  for (uint32_t n = 0; n < 4; ++n) {
    clients.push_back(deployment.MakeClient(n, 1, spec.name));
    registry.Register(clients.back()->endpoint());
  }
  if (!clients[0]->FetchSnapshot().ok()) return 1;
  cache::TaskCache cache(deployment.fabric(), deployment.server(0),
                         *clients[0]->snapshot(), registry,
                         {.policy = cache::CachePolicy::kOneshot});
  auto load_end = cache.Preload(0);
  if (!load_end.ok()) return 1;
  std::printf("\n(c) task cache preloaded in %.3fs virtual (hit ratio "
              "%.0f%%)\n", ToSeconds(load_end.value()),
              cache.HitRatio() * 100);
  cache.DropNode(2);
  std::printf("    node 2 failed: hit ratio now %.0f%% — other tasks in the "
              "cluster are unaffected (task-grained containment)\n",
              cache.HitRatio() * 100);
  auto reload_end = cache.Preload(load_end.value());
  if (!reload_end.ok()) return 1;
  std::printf("    chunk-granular reload back to %.0f%% in %.3fs virtual\n",
              cache.HitRatio() * 100,
              ToSeconds(reload_end.value() - load_end.value()));
  std::printf("\nfault_recovery OK\n");
  return 0;
}
