// DLCMD — dataset management command-line tool (§5, "similar to s3cmd").
//
// Operates a single-process DIESEL deployment whose chunk store is backed by
// a real directory, so datasets persist across invocations:
//
//   dlcmd --root DIR put <dataset> <local-file> <diesel-path>
//   dlcmd --root DIR put-tree <dataset> <local-dir> <diesel-prefix>
//   dlcmd --root DIR get <dataset> <diesel-path> <local-file>
//   dlcmd --root DIR ls <dataset> <diesel-dir>
//   dlcmd --root DIR stat <dataset> <diesel-path>
//   dlcmd --root DIR del <dataset> <diesel-path>
//   dlcmd --root DIR purge <dataset>
//   dlcmd --root DIR save-meta <dataset> <local-file>
//   dlcmd --root DIR recover <dataset>
//   dlcmd --root DIR stats <dataset>
//   dlcmd --root DIR trace <dataset> <diesel-path>
//   dlcmd --root DIR tail <dataset>
//   dlcmd --root DIR critpath <dataset>
//   dlcmd --root DIR prefetch <dataset> [group-size] [nodes] [seed]
//   dlcmd perf merge <dir> [-o out.json] [--strip-registry]
//   dlcmd perf diff <baseline.json> <current.json> [--tol X] [--allow-missing]
//   dlcmd slo <report-dir> [--slo spec.json] [--bench name] [-v]
//   dlcmd timeline <file.timeline.json> [--section S] [--key K]
//   dlcmd util <report.json> [--window ns] [--top N]
//   dlcmd hotspots <report.json> [--window ns] [--top N]
//   dlcmd membership <nodes> [target] [chunks] [seed]
//   dlcmd tenants <jobs> [files] [capacity_mb] [seed]
//
// `stats` runs a small metadata workload (recover + list) and prints the
// process-wide metrics registry; `trace` reads one file with the span
// tracer attached and prints the resulting virtual-time span tree; `tail`
// runs a cached read workload with exemplar capture on and resolves the
// worst `read.path.total_ns` tail observations back to their span trees
// (phase-annotated critical path of a p99 GetFile); `prefetch` draws one
// epoch's chunk-wise shuffle plan and prints the clairvoyant access
// schedule the prefetch scheduler would execute. `perf` operates on bench
// report files and needs no --root: `merge` combines per-bench
// `*.report.json` into one suite document, `diff` gates a suite against a
// committed baseline (non-zero exit on regression). `slo` (root-less)
// evaluates the declarative objectives in bench/slo.json against a
// directory of reports + timelines and exits non-zero on breach;
// `timeline` pretty-prints a `diesel.timeline/v1` dump. `util` and
// `hotspots` (root-less) read the registry embedded in a bench report and
// derive per-resource/per-node utilization, skew statistics, and the
// hotspot ranking with Little's-law queueing attribution; `critpath`
// (root-based) runs a cached read workload under the tracer and prints the
// longest resource-attributed path through the slowest GetFile.
// `membership` (also root-less) inspects the elastic-membership ring:
// ownership balance at <nodes> members, the chunk-move fraction of a
// planned rescale to [target] members versus the consistent-hashing ideal,
// and a seeded churn replay with the resulting epoch log. `tenants`
// (root-less) demonstrates the multi-tenant cache fabric: job 0 cold-loads
// a dataset and tears down (demoting residency into the shared tier), then
// <jobs>-1 successor jobs warm-start by adopting the shared chunks; it
// prints the per-tenant accounting table (resident/demoted/adopted bytes,
// shared hits) and each job's backend load count, which should be zero for
// every job after the first.
//
// The KV metadata tier is in-memory per invocation; `recover` rebuilds it
// from the persisted self-contained chunks (which is also what every other
// subcommand does on startup) — a live demonstration of §4.1.2.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "cache/registry.h"
#include "cache/task_cache.h"
#include "core/deployment.h"
#include "dlt/dataset_gen.h"
#include "tenant/fabric.h"
#include "common/rng.h"
#include "core/client.h"
#include "core/housekeeping.h"
#include "core/server.h"
#include "kv/cluster.h"
#include "membership/churn.h"
#include "membership/membership.h"
#include "net/fabric.h"
#include "obs/critical_path.h"
#include "obs/hotspot.h"
#include "obs/metrics.h"
#include "obs/perf_diff.h"
#include "obs/slo.h"
#include "obs/trace.h"
#include "ostore/dir_store.h"
#include "prefetch/access_schedule.h"
#include "shuffle/shuffle.h"

namespace diesel::tools {
namespace {

namespace fs = std::filesystem;

struct Cli {
  sim::Cluster cluster{2};
  net::Fabric fabric{cluster};
  kv::KvCluster kv;
  ostore::DirStore store;
  core::DieselServer server;
  sim::VirtualClock clock;

  explicit Cli(const fs::path& root)
      : kv(fabric, KvOpts()),
        store(root),
        server(fabric, kv, store, {.node = 1}) {}

  static kv::KvClusterOptions KvOpts() {
    kv::KvClusterOptions opts;
    opts.nodes = {1};
    opts.shards_per_node = 4;
    return opts;
  }

  /// Rebuild the (per-invocation, in-memory) metadata from chunk headers.
  Status Bootstrap(const std::string& dataset) {
    auto stats = server.RecoverMetadata(clock, dataset, 0);
    if (!stats.ok()) return stats.status();
    return Status::Ok();
  }
};

Result<Bytes> ReadLocalFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) return Status::IoError("cannot open " + path);
  Bytes data(static_cast<size_t>(in.tellg()));
  in.seekg(0);
  in.read(reinterpret_cast<char*>(data.data()),
          static_cast<std::streamsize>(data.size()));
  if (!in) return Status::IoError("short read: " + path);
  return data;
}

Status WriteLocalFile(const std::string& path, BytesView data) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Status::IoError("cannot open " + path);
  out.write(reinterpret_cast<const char*>(data.data()),
            static_cast<std::streamsize>(data.size()));
  return out ? Status::Ok() : Status::IoError("short write: " + path);
}

int Usage() {
  std::fprintf(stderr,
               "usage: dlcmd --root DIR "
               "{put|put-tree|get|ls|stat|del|purge|save-meta|recover|"
               "stats|trace|tail|critpath|prefetch} ...\n"
               "       dlcmd --root DIR prefetch <dataset> "
               "[group-size] [nodes] [seed]\n"
               "       dlcmd perf {merge|diff} ...\n"
               "       dlcmd slo <report-dir> [--slo spec.json] "
               "[--bench name] [-v]\n"
               "       dlcmd timeline <file.timeline.json> "
               "[--section S] [--key K]\n"
               "       dlcmd util <report.json> [--window ns] [--top N]\n"
               "       dlcmd hotspots <report.json> [--window ns] [--top N]\n"
               "       dlcmd membership <nodes> [target] [chunks] [seed]\n"
               "       dlcmd tenants <jobs> [files] [capacity_mb] [seed]\n"
               "stats prints the process-wide metrics registry; names are\n"
               "prefixed by subsystem: net.* (fabric RPCs), kv.* (metadata\n"
               "tier), core.* (server/client), cache.* (task cache),\n"
               "shuffle.* (chunk-wise shuffle), dlt.* (training pipeline),\n"
               "prefetch.* (clairvoyant prefetch scheduler).\n"
               "hot read path counters: net.batch.calls / .subrequests /\n"
               ".size (per-link coalesced multi-gets and their fan-in),\n"
               "cache.slice.views (zero-copy slice reads from the task cache\n"
               "and the shuffle window), cache.slice.crc_verified /\n"
               ".crc_skipped (per-blob CRC memoization hit rate).\n"
               "critical-path histograms: read.path.total_ns (end-to-end\n"
               "GetFile) decomposed into read.path.{local,owner_wait,rpc,\n"
               "device,parse,slice,backoff,degraded}_ns plus\n"
               "read.path.retries; tail observations carry span-id exemplars\n"
               "(see `tail`). timeline.samples / .buckets / .dropped count\n"
               "Timeline sampler activity behind *.timeline.json dumps.\n"
               "resource telemetry: sim.device.{queue_wait_ns,service_ns,\n"
               "busy_ns,ops,bytes,intervals_collapsed,util}{device=,node=}\n"
               "per bound queueing device; net.link.{busy_ns,queue_wait_ns,\n"
               "util}{link=,node=} per fabric link; cluster.node.util{node=}\n"
               "and cluster.imbalance.{max_util,median_util,mean_util,cv,\n"
               "max_over_median,nodes} are the obs::ClusterView rollup\n"
               "(see `util` / `hotspots`).\n"
               "multi-tenant fabric counters: tenant.adopted_chunks /\n"
               ".adopted_bytes (misses warm-started from the shared tier),\n"
               "tenant.demoted_chunks / .demoted_bytes (teardown residency\n"
               "retained by the shared tier) vs tenant.discarded_bytes\n"
               "(teardown bytes dropped — nonzero means re-reads later);\n"
               "per-tenant series tenant.{resident_bytes,resident_chunks,\n"
               "shared_hits,evictions,evicted_by_other}{tenant=} and\n"
               "fabric-wide tenant.fabric.{resident_bytes,resident_chunks,\n"
               "tenants_active,declined_chunks,invalidated_chunks}\n"
               "(invalidated = shared entries purged after a reader's CRC\n"
               "detected corruption; see `tenants`).\n");
  return 2;
}

// Ring inspector: balance, rescale move fraction, seeded churn replay.
// Needs no deployment — it exercises the MembershipTable directly.
int MembershipCommand(const std::vector<std::string>& args) {
  if (args.empty() || args.size() > 4) return Usage();
  size_t nodes = std::stoul(args[0]);
  size_t target = args.size() > 1 ? std::stoul(args[1]) : nodes;
  size_t chunks = args.size() > 2 ? std::stoul(args[2]) : 4096;
  uint64_t seed = args.size() > 3 ? std::stoull(args[3]) : 42;
  if (nodes == 0 || target == 0 || chunks == 0) {
    std::fprintf(stderr, "dlcmd: nodes/target/chunks must be > 0\n");
    return 1;
  }

  membership::MembershipTable table;
  std::vector<sim::NodeId> initial(nodes);
  for (size_t i = 0; i < nodes; ++i) initial[i] = static_cast<sim::NodeId>(i);
  table.Bootstrap(initial, 0);

  auto owners_of = [&](std::vector<sim::NodeId>& out) {
    out.resize(chunks);
    for (size_t ci = 0; ci < chunks; ++ci) {
      auto owner = table.OwnerOfChunk(ci);
      out[ci] = owner.ok() ? owner.value() : sim::kInvalidNode;
    }
  };

  std::vector<sim::NodeId> before;
  owners_of(before);
  double min_frac = 1.0, max_frac = 0.0;
  for (sim::NodeId n : initial) {
    double f = table.OwnedFraction(n);
    min_frac = std::min(min_frac, f);
    max_frac = std::max(max_frac, f);
  }
  std::printf("ring: %zu nodes, %zu chunks; owned fraction min %.4f max %.4f "
              "(ideal %.4f, imbalance %.2fx)\n",
              nodes, chunks, min_frac, max_frac, 1.0 / nodes,
              min_frac > 0 ? max_frac / min_frac : 0.0);

  if (target != nodes) {
    // Planned rescale: join spares or drain the highest ids, then measure
    // how many chunk owners actually changed against the consistent-hash
    // ideal (|target - nodes| / max(nodes, target) of the space).
    Nanos at = Millis(1);
    if (target > nodes) {
      for (size_t n = nodes; n < target; ++n) {
        table.Join(static_cast<sim::NodeId>(n), at);
        at += Millis(1);
      }
    } else {
      for (size_t n = target; n < nodes; ++n) {
        table.StartDrain(static_cast<sim::NodeId>(n), at);
        table.CompleteDrain(static_cast<sim::NodeId>(n), at + Millis(1));
        at += Millis(2);
      }
    }
    std::vector<sim::NodeId> after;
    owners_of(after);
    size_t moved = 0;
    for (size_t ci = 0; ci < chunks; ++ci) {
      if (after[ci] != before[ci]) ++moved;
    }
    double ideal = static_cast<double>(target > nodes ? target - nodes
                                                      : nodes - target) /
                   static_cast<double>(std::max(nodes, target));
    std::printf("rescale %zu -> %zu: moved %zu/%zu chunks (%.4f of the "
                "space; consistent-hash ideal %.4f) across %llu epochs\n",
                nodes, target, moved, chunks,
                static_cast<double>(moved) / chunks, ideal,
                static_cast<unsigned long long>(table.epoch() - 1));
  }

  // Seeded churn replay over the post-rescale set: expand the seed into a
  // schedule, drive the table through it, and dump the epoch log.
  std::vector<sim::NodeId> active = table.ActiveNodes();
  std::vector<sim::NodeId> spares;
  for (size_t i = 0; i < 4; ++i) {
    spares.push_back(static_cast<sim::NodeId>(std::max(nodes, target) + i));
  }
  membership::ChurnScheduleOptions copts;
  copts.seed = seed;
  copts.events = 6;
  copts.min_active = std::max<size_t>(1, active.size() / 2);
  membership::ChurnSchedule schedule =
      membership::ChurnSchedule::Generate(copts, active, spares);
  uint64_t epoch_before = table.epoch();
  membership::ChurnDriver driver(table, schedule);
  driver.AdvanceTo(copts.horizon);
  std::printf("churn(seed %llu): %zu events fired, epoch %llu -> %llu, "
              "%zu nodes active\n",
              static_cast<unsigned long long>(seed), driver.fired(),
              static_cast<unsigned long long>(epoch_before),
              static_cast<unsigned long long>(table.epoch()),
              table.NumActive());
  for (const membership::MembershipChange& c : table.Log()) {
    if (c.epoch <= epoch_before) continue;
    std::printf("  epoch %-4llu %-13s n%-3llu @ %8.1f ms\n",
                static_cast<unsigned long long>(c.epoch),
                membership::ToString(c.kind),
                static_cast<unsigned long long>(c.node),
                static_cast<double>(c.at) / 1e6);
  }
  return 0;
}

// Multi-tenant fabric inspector: run a warm-start relay in-memory — job 0
// cold-loads the dataset, tears down through the demote path, and every
// successor job adopts the shared residency — then print the per-tenant
// accounting table the fabric keeps.
int TenantsCommand(const std::vector<std::string>& args) {
  if (args.empty() || args.size() > 4) return Usage();
  size_t jobs = std::stoul(args[0]);
  size_t files = args.size() > 1 ? std::stoul(args[1]) : 80;
  uint64_t capacity_mb = args.size() > 2 ? std::stoull(args[2]) : 0;
  uint64_t seed = args.size() > 3 ? std::stoull(args[3]) : 42;
  if (jobs == 0 || files == 0) {
    std::fprintf(stderr, "dlcmd: jobs/files must be > 0\n");
    return 1;
  }

  core::DeploymentOptions dopts;
  dopts.num_client_nodes = 2;
  core::Deployment dep(dopts);
  dlt::DatasetSpec spec;
  spec.name = "tenantdemo";
  spec.num_classes = 4;
  spec.files_per_class = (files + 3) / 4;
  spec.mean_file_bytes = 2048;
  spec.seed = seed;
  auto writer = dep.MakeClient(0, 0, spec.name, 16 * 1024);
  Status ingest = dlt::ForEachFile(spec, [&](const dlt::GeneratedFile& f) {
    return writer->Put(f.path, f.content);
  });
  if (!ingest.ok() || !writer->Flush().ok()) {
    std::fprintf(stderr, "dlcmd: dataset ingest failed\n");
    return 1;
  }

  tenant::FabricOptions fopts;
  fopts.capacity_bytes = capacity_mb * 1024 * 1024;
  tenant::CacheFabric shared(dep.fabric(), fopts);

  sim::VirtualClock clock;
  std::printf("%-8s %8s %8s %8s %8s %8s %8s\n", "job", "backend", "adopted",
              "demoted", "shared", "resident", "discard");
  for (size_t j = 0; j < jobs; ++j) {
    std::string name = "job" + std::to_string(j);
    tenant::TenantBinding* binding = shared.RegisterTenant(spec.name, {name});
    auto client = dep.MakeClient(j % dopts.num_client_nodes, 1, spec.name);
    cache::TaskRegistry registry;
    registry.Register(client->endpoint());
    if (!client->FetchSnapshot().ok()) {
      std::fprintf(stderr, "dlcmd: snapshot fetch failed\n");
      return 1;
    }
    cache::TaskCache cache(dep.fabric(), dep.server(0), *client->snapshot(),
                           registry, {});
    cache.AttachSharedTier(binding);
    for (size_t i = 0; i < spec.total_files(); ++i) {
      const core::FileMeta* meta =
          client->snapshot()->Lookup(dlt::FilePath(spec, i));
      if (meta == nullptr) continue;
      auto r = cache.GetFile(clock, client->endpoint(), *meta);
      if (!r.ok()) {
        std::fprintf(stderr, "dlcmd: read failed: %s\n",
                     r.status().ToString().c_str());
        return 1;
      }
    }
    cache::TaskCacheStats cs = cache.stats();
    cache.Teardown(clock.now());
    cache::TaskCacheStats after = cache.stats();
    shared.DeregisterTenant(binding);
    std::printf("%-8s %8llu %8llu %8llu %8s %8s %8llu\n", name.c_str(),
                static_cast<unsigned long long>(cs.chunk_loads),
                static_cast<unsigned long long>(cs.adopted_chunks),
                static_cast<unsigned long long>(after.demoted_chunks), "-",
                "-", static_cast<unsigned long long>(after.discarded_bytes));
  }

  std::printf("\nfabric: %llu chunks / %llu bytes resident\n",
              static_cast<unsigned long long>(shared.resident_chunks()),
              static_cast<unsigned long long>(shared.resident_bytes()));
  std::printf("%-8s %6s %8s %8s %8s %8s %8s %8s\n", "tenant", "active",
              "resident", "pub", "demoted", "adopted", "shared", "evicted");
  for (const tenant::TenantStats& t : shared.Stats()) {
    std::printf("%-8s %6s %8llu %8llu %8llu %8llu %8llu %8llu\n",
                t.name.c_str(), t.active ? "yes" : "no",
                static_cast<unsigned long long>(t.resident_chunks),
                static_cast<unsigned long long>(t.published_chunks),
                static_cast<unsigned long long>(t.demoted_chunks),
                static_cast<unsigned long long>(t.adopted_chunks),
                static_cast<unsigned long long>(t.shared_hits),
                static_cast<unsigned long long>(t.evictions));
  }
  return 0;
}

core::DieselClient MakeClient(Cli& cli, const std::string& dataset) {
  core::ClientOptions copts;
  copts.dataset = dataset;
  copts.node = 0;
  return core::DieselClient(cli.fabric, {&cli.server}, copts);
}

int Main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  // `perf` operates on report files only — no deployment, no --root.
  if (!args.empty() && args[0] == "perf") {
    return obs::PerfCommand({args.begin() + 1, args.end()}, std::cout,
                            std::cerr);
  }
  // `membership` inspects the elastic-membership ring — no deployment either.
  if (!args.empty() && args[0] == "membership") {
    return MembershipCommand({args.begin() + 1, args.end()});
  }
  // `tenants` runs the multi-tenant warm-start relay in-memory.
  if (!args.empty() && args[0] == "tenants") {
    return TenantsCommand({args.begin() + 1, args.end()});
  }
  // `slo` gates report/timeline artifacts; `timeline` pretty-prints one.
  if (!args.empty() && args[0] == "slo") {
    return obs::SloCommand({args.begin() + 1, args.end()}, std::cout,
                           std::cerr);
  }
  if (!args.empty() && args[0] == "timeline") {
    return obs::TimelineCommand({args.begin() + 1, args.end()}, std::cout,
                                std::cerr);
  }
  // `util` / `hotspots` analyze the registry embedded in a bench report.
  if (!args.empty() && args[0] == "util") {
    return obs::UtilCommand({args.begin() + 1, args.end()}, std::cout,
                            std::cerr);
  }
  if (!args.empty() && args[0] == "hotspots") {
    return obs::HotspotsCommand({args.begin() + 1, args.end()}, std::cout,
                                std::cerr);
  }
  if (args.size() < 3 || args[0] != "--root") return Usage();
  fs::path root = args[1];
  std::string cmd = args[2];
  args.erase(args.begin(), args.begin() + 3);

  Cli cli(root);
  auto fail = [](const Status& st) {
    std::fprintf(stderr, "dlcmd: %s\n", st.ToString().c_str());
    return 1;
  };

  if (cmd == "put" && args.size() == 3) {
    const auto& [dataset, local, remote] = std::tie(args[0], args[1], args[2]);
    if (Status st = cli.Bootstrap(dataset); !st.ok()) return fail(st);
    auto data = ReadLocalFile(local);
    if (!data.ok()) return fail(data.status());
    core::DieselClient client = MakeClient(cli, dataset);
    // Avoid chunk-id collisions with previous invocations: stamp the clock
    // past the newest existing chunk.
    auto dm = cli.server.GetDatasetMeta(cli.clock, 0, dataset);
    if (dm.ok()) client.clock().AdvanceTo(dm->update_ts_ns + Seconds(1.0));
    if (Status st = client.Put(remote, data.value()); !st.ok())
      return fail(st);
    if (Status st = client.Flush(); !st.ok()) return fail(st);
    std::printf("put %s -> %s (%zu bytes)\n", local.c_str(), remote.c_str(),
                data->size());
    return 0;
  }

  if (cmd == "put-tree" && args.size() == 3) {
    const auto& [dataset, local_dir, prefix] =
        std::tie(args[0], args[1], args[2]);
    if (Status st = cli.Bootstrap(dataset); !st.ok()) return fail(st);
    core::DieselClient client = MakeClient(cli, dataset);
    auto dm = cli.server.GetDatasetMeta(cli.clock, 0, dataset);
    if (dm.ok()) client.clock().AdvanceTo(dm->update_ts_ns + Seconds(1.0));
    size_t count = 0;
    std::error_code ec;
    for (auto it = fs::recursive_directory_iterator(local_dir, ec);
         !ec && it != fs::recursive_directory_iterator(); it.increment(ec)) {
      if (!it->is_regular_file()) continue;
      auto data = ReadLocalFile(it->path().string());
      if (!data.ok()) return fail(data.status());
      std::string rel =
          fs::relative(it->path(), local_dir).generic_string();
      if (Status st = client.Put(prefix + "/" + rel, data.value()); !st.ok())
        return fail(st);
      ++count;
    }
    if (Status st = client.Flush(); !st.ok()) return fail(st);
    std::printf("put-tree: %zu files under %s (%llu chunks)\n", count,
                prefix.c_str(),
                static_cast<unsigned long long>(
                    client.stats().chunks_flushed));
    return 0;
  }

  if (cmd == "get" && args.size() == 3) {
    const auto& [dataset, remote, local] = std::tie(args[0], args[1], args[2]);
    if (Status st = cli.Bootstrap(dataset); !st.ok()) return fail(st);
    core::DieselClient client = MakeClient(cli, dataset);
    auto data = client.Get(remote);
    if (!data.ok()) return fail(data.status());
    if (Status st = WriteLocalFile(local, data.value()); !st.ok())
      return fail(st);
    std::printf("get %s -> %s (%zu bytes)\n", remote.c_str(), local.c_str(),
                data->size());
    return 0;
  }

  if (cmd == "ls" && (args.size() == 1 || args.size() == 2)) {
    if (Status st = cli.Bootstrap(args[0]); !st.ok()) return fail(st);
    core::DieselClient client = MakeClient(cli, args[0]);
    auto entries = client.List(args.size() == 2 ? args[1] : "/");
    if (!entries.ok()) return fail(entries.status());
    for (const auto& e : entries.value()) {
      std::printf("%s%s\n", e.name.c_str(), e.is_dir ? "/" : "");
    }
    return 0;
  }

  if (cmd == "stat" && args.size() == 2) {
    if (Status st = cli.Bootstrap(args[0]); !st.ok()) return fail(st);
    core::DieselClient client = MakeClient(cli, args[0]);
    auto meta = client.Stat(args[1]);
    if (!meta.ok()) return fail(meta.status());
    std::printf("%s: %llu bytes, chunk %s @%llu, crc %08x\n", args[1].c_str(),
                static_cast<unsigned long long>(meta->length),
                meta->chunk.Encoded().c_str(),
                static_cast<unsigned long long>(meta->offset), meta->crc);
    return 0;
  }

  if (cmd == "del" && args.size() == 2) {
    if (Status st = cli.Bootstrap(args[0]); !st.ok()) return fail(st);
    core::DieselClient client = MakeClient(cli, args[0]);
    if (Status st = client.Delete(args[1]); !st.ok()) return fail(st);
    // Persist the tombstone by compacting immediately (the in-memory KV
    // dies with this process, the chunks do not).
    auto purged = core::PurgeDataset(cli.clock, cli.server, args[0]);
    if (!purged.ok()) return fail(purged.status());
    std::printf("deleted %s (compacted %zu chunks)\n", args[1].c_str(),
                purged->chunks_compacted);
    return 0;
  }

  if (cmd == "purge" && args.size() == 1) {
    if (Status st = cli.Bootstrap(args[0]); !st.ok()) return fail(st);
    auto stats = core::PurgeDataset(cli.clock, cli.server, args[0]);
    if (!stats.ok()) return fail(stats.status());
    std::printf("purge: %zu chunks compacted, %zu files dropped, %llu bytes "
                "reclaimed\n", stats->chunks_compacted, stats->files_dropped,
                static_cast<unsigned long long>(stats->bytes_reclaimed));
    return 0;
  }

  if (cmd == "save-meta" && args.size() == 2) {
    if (Status st = cli.Bootstrap(args[0]); !st.ok()) return fail(st);
    core::DieselClient client = MakeClient(cli, args[0]);
    if (Status st = client.FetchSnapshot(); !st.ok()) return fail(st);
    Bytes blob = client.snapshot()->Serialize();
    if (Status st = WriteLocalFile(args[1], blob); !st.ok()) return fail(st);
    std::printf("snapshot: %zu files, %zu bytes -> %s\n",
                client.snapshot()->num_files(), blob.size(), args[1].c_str());
    return 0;
  }

  if (cmd == "stats" && args.size() == 1) {
    // Run a representative metadata workload (header-scan recovery, snapshot
    // fetch, a root listing) and show what the registry collected.
    if (Status st = cli.Bootstrap(args[0]); !st.ok()) return fail(st);
    core::DieselClient client = MakeClient(cli, args[0]);
    if (Status st = client.FetchSnapshot(); !st.ok()) return fail(st);
    auto entries = client.List("/");
    if (!entries.ok()) return fail(entries.status());
    std::printf("%s", obs::Metrics().Text().c_str());
    return 0;
  }

  if (cmd == "trace" && args.size() == 2) {
    obs::Tracer tracer;
    cli.fabric.set_tracer(&tracer);
    if (Status st = cli.Bootstrap(args[0]); !st.ok()) return fail(st);
    core::DieselClient client = MakeClient(cli, args[0]);
    auto data = client.Get(args[1]);
    if (!data.ok()) return fail(data.status());
    std::printf("%s", tracer.TextDump().c_str());
    std::printf("%zu spans, %zu bytes read\n", tracer.size(), data->size());
    cli.fabric.set_tracer(nullptr);
    return 0;
  }

  if (cmd == "tail" && args.size() == 1) {
    // Tail-latency attribution demo: run a cached read workload over the
    // persisted dataset with the span tracer attached (exemplar capture
    // needs live span ids), then resolve the worst read.path.total_ns
    // observations back to their phase-annotated span trees.
    obs::Tracer tracer;
    cli.fabric.set_tracer(&tracer);
    if (Status st = cli.Bootstrap(args[0]); !st.ok()) return fail(st);
    core::ClientOptions copts;
    copts.dataset = args[0];
    copts.node = 0;
    core::DieselClient c0(cli.fabric, {&cli.server}, copts);
    copts.client_index = 1;
    core::DieselClient c1(cli.fabric, {&cli.server}, copts);
    if (Status st = c0.FetchSnapshot(); !st.ok()) return fail(st);
    const core::MetadataSnapshot& snap = *c0.snapshot();
    if (snap.num_files() == 0)
      return fail(Status::NotFound("dataset has no files"));

    cache::TaskRegistry registry;
    registry.Register(c0.endpoint());
    registry.Register(c1.endpoint());
    cache::TaskCacheOptions tcopts;
    tcopts.policy = cache::CachePolicy::kOneshot;
    cache::TaskCache cache(cli.fabric, cli.server, snap, registry, tcopts);
    cache.EstablishConnections();

    sim::VirtualClock clk0, clk1;
    for (uint32_t i = 0; i < snap.num_files(); ++i) {
      const core::FileMeta& fm = snap.files()[i];
      bool even = (i % 2) == 0;
      auto r = cache.GetFile(even ? clk0 : clk1,
                             even ? c0.endpoint() : c1.endpoint(), fm);
      if (!r.ok()) return fail(r.status());
    }
    cli.fabric.set_tracer(nullptr);

    obs::MetricsSnapshot snap_m = obs::Metrics().Snapshot();
    auto it = snap_m.histograms.find("read.path.total_ns");
    if (it == snap_m.histograms.end() || it->second.count() == 0)
      return fail(Status::Internal("no read.path.total_ns observations"));
    const Histogram& h = it->second;
    std::printf("read.path.total_ns: %llu reads, p50 %.0f ns, p99 %.0f ns\n",
                static_cast<unsigned long long>(h.count()), h.Quantile(0.5),
                h.Quantile(0.99));
    const auto& exemplars = h.exemplars();
    if (exemplars.empty())
      return fail(Status::Internal("no tail exemplars captured"));
    std::printf("%zu tail exemplars above the q=%.2f threshold:\n",
                exemplars.size(), h.exemplar_quantile());
    for (const auto& ex : exemplars) {
      std::printf("  %.0f ns @ %.0f ns span %llu\n", ex.value, ex.at,
                  static_cast<unsigned long long>(ex.trace_id));
    }
    std::printf("\nworst read (span %llu):\n",
                static_cast<unsigned long long>(exemplars.front().trace_id));
    std::printf("%s", tracer.TreeDump(exemplars.front().trace_id).c_str());
    return 0;
  }

  if (cmd == "critpath" && args.size() == 1) {
    // Critical-path demo: run a cached read workload over the persisted
    // dataset with the span tracer attached, then compute the longest
    // resource-attributed path through the slowest GetFile — which spans
    // actually determined its completion time, with per-resource totals.
    obs::Tracer tracer;
    cli.fabric.set_tracer(&tracer);
    if (Status st = cli.Bootstrap(args[0]); !st.ok()) return fail(st);
    core::ClientOptions copts;
    copts.dataset = args[0];
    copts.node = 0;
    core::DieselClient c0(cli.fabric, {&cli.server}, copts);
    copts.client_index = 1;
    core::DieselClient c1(cli.fabric, {&cli.server}, copts);
    if (Status st = c0.FetchSnapshot(); !st.ok()) return fail(st);
    const core::MetadataSnapshot& snap = *c0.snapshot();
    if (snap.num_files() == 0)
      return fail(Status::NotFound("dataset has no files"));

    cache::TaskRegistry registry;
    registry.Register(c0.endpoint());
    registry.Register(c1.endpoint());
    cache::TaskCacheOptions tcopts;
    tcopts.policy = cache::CachePolicy::kOneshot;
    cache::TaskCache cache(cli.fabric, cli.server, snap, registry, tcopts);
    cache.EstablishConnections();

    sim::VirtualClock clk0, clk1;
    for (uint32_t i = 0; i < snap.num_files(); ++i) {
      const core::FileMeta& fm = snap.files()[i];
      bool even = (i % 2) == 0;
      auto r = cache.GetFile(even ? clk0 : clk1,
                             even ? c0.endpoint() : c1.endpoint(), fm);
      if (!r.ok()) return fail(r.status());
    }
    cli.fabric.set_tracer(nullptr);

    obs::CriticalPath cp = obs::CriticalPath::Analyze(tracer);
    if (!cp.valid())
      return fail(Status::Internal("no completed root span to analyze"));
    std::printf("%s", cp.Render(30).c_str());
    size_t zero_slack = 0;
    for (const auto& [id, slack] : cp.slack()) {
      if (slack == 0) ++zero_slack;
    }
    std::printf("slack: %zu of %zu child spans are on their parent's "
                "critical chain (slack 0)\n", zero_slack, cp.slack().size());
    return 0;
  }

  if (cmd == "prefetch" && args.size() >= 1 && args.size() <= 4) {
    // Inspector: draw one epoch's chunk-wise shuffle plan and print the
    // clairvoyant access schedule derived from it — fill order, per-chunk
    // access counts and the Belady reuse distances eviction would use.
    if (Status st = cli.Bootstrap(args[0]); !st.ok()) return fail(st);
    core::DieselClient client = MakeClient(cli, args[0]);
    if (Status st = client.FetchSnapshot(); !st.ok()) return fail(st);
    const core::MetadataSnapshot& snap = *client.snapshot();
    size_t group_size = args.size() > 1 ? std::stoul(args[1]) : 4;
    size_t nodes = args.size() > 2 ? std::stoul(args[2]) : 4;
    uint64_t seed = args.size() > 3 ? std::stoull(args[3]) : 42;
    if (group_size == 0 || nodes == 0)
      return fail(Status::InvalidArgument("group-size/nodes must be > 0"));
    Rng rng(seed);
    shuffle::ShufflePlan plan =
        shuffle::ChunkWiseShuffle(snap, {.group_size = group_size}, rng);
    prefetch::AccessSchedule sched =
        prefetch::AccessSchedule::Build(plan, snap);
    std::printf("plan: %zu files in %zu groups, %zu/%zu chunks touched "
                "(seed %llu, group-size %zu, %zu owner nodes)\n",
                plan.file_order.size(), plan.num_groups(),
                sched.chunks_by_first_access().size(), snap.chunks().size(),
                static_cast<unsigned long long>(seed), group_size, nodes);
    std::printf("%-6s %-5s %-7s %-8s %-8s %-8s\n", "chunk", "node", "reads",
                "first", "last", "reuse");
    constexpr size_t kHead = 20;
    size_t shown = 0;
    uint64_t reuse_sum = 0, reuse_n = 0;
    for (size_t ci : sched.chunks_by_first_access()) {
      const auto& a = sched.AccessesOf(ci);
      for (size_t i = 1; i < a.size(); ++i) {
        reuse_sum += a[i] - a[i - 1];
        ++reuse_n;
      }
      if (shown < kHead) {
        std::printf("%-6zu %-5zu %-7zu %-8llu %-8llu %-8llu\n", ci, ci % nodes,
                    a.size(), static_cast<unsigned long long>(a.front()),
                    static_cast<unsigned long long>(a.back()),
                    static_cast<unsigned long long>(
                        a.size() > 1 ? a[1] - a[0] : 0));
      }
      ++shown;
    }
    if (shown > kHead) std::printf("... (%zu more chunks)\n", shown - kHead);
    std::printf("mean reuse distance: %.1f positions over %llu re-reads\n",
                reuse_n ? static_cast<double>(reuse_sum) / reuse_n : 0.0,
                static_cast<unsigned long long>(reuse_n));
    return 0;
  }

  if (cmd == "recover" && args.size() == 1) {
    auto stats = cli.server.RecoverMetadata(cli.clock, args[0], 0);
    if (!stats.ok()) return fail(stats.status());
    std::printf("recover: %zu chunks scanned, %zu files, %llu header bytes "
                "read\n", stats->chunks_scanned, stats->files_recovered,
                static_cast<unsigned long long>(stats->header_bytes_read));
    return 0;
  }

  return Usage();
}

}  // namespace
}  // namespace diesel::tools

int main(int argc, char** argv) { return diesel::tools::Main(argc, argv); }
