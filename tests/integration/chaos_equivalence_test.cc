// Chaos equivalence: a 3-epoch distributed read under a seeded fault
// schedule — a task-node flap, a KV-node loss + recovery, random RPC drops,
// a latency spike and a corrupted chunk fetch — must deliver byte-identical
// file contents in the same per-epoch read order as the fault-free run.
// Faults may only cost time, never correctness. The same seed must also
// reproduce the chaos run bit-for-bit (deterministic injection).
// The chaos seed is sweepable: DIESEL_CHAOS_SEED=<n> reruns the whole
// schedule under a different seed (the nightly chaos sweep runs 32 of
// them); unset, the pinned default keeps local runs reproducible.
#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <vector>

#include "cache/task_cache.h"
#include "common/crc32.h"
#include "core/deployment.h"
#include "dlt/dataset_gen.h"
#include "net/fault_injector.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "tests/testutil/flightrec_listener.h"

namespace diesel {
namespace {

constexpr int kEpochs = 3;
constexpr uint32_t kClientNodes = 2;
constexpr uint32_t kClientsPerNode = 2;
constexpr sim::NodeId kFlappedNode = 1;  // a task master node

/// Sweep hook: the nightly chaos job exports DIESEL_CHAOS_SEED to replay
/// every seeded schedule in this file under a fresh seed.
uint64_t ChaosSeed(uint64_t fallback) {
  const char* env = std::getenv("DIESEL_CHAOS_SEED");
  return env != nullptr ? std::strtoull(env, nullptr, 10) : fallback;
}

dlt::DatasetSpec MakeSpec() {
  dlt::DatasetSpec spec;
  spec.name = "chaos";
  spec.num_classes = 3;
  spec.files_per_class = 40;
  spec.mean_file_bytes = 2048;
  return spec;
}

struct RunOutput {
  /// Per epoch, the CRC32C of every file content in read order.
  std::vector<std::vector<uint32_t>> crcs;
  /// Slowest client clock after each epoch.
  std::vector<Nanos> epoch_end;
  cache::TaskCacheStats cache_stats;
  net::FaultInjectorStats fault_stats;
  /// Span-tree dump of the traced read phase (fault runs only).
  std::string trace_dump;
  /// Registry delta across the whole run (this run's metrics only).
  obs::MetricsSnapshot metrics_delta;
};

/// Ingest the dataset, preload a oneshot task cache over 2 nodes x 2
/// clients, then read every file for kEpochs epochs in a deterministic
/// epoch-rotated order. `plan` (optional) is attached to the fabric for the
/// read phase only; `kv_outage` kills + recovers one KV node between epochs
/// 1 and 2.
RunOutput RunWorkload(const net::FaultPlan* plan, bool kv_outage) {
  RunOutput out;
  // The registry is process-global and accumulates across runs; this run's
  // contribution is the delta from here.
  obs::MetricsSnapshot reg_before = obs::Metrics().Snapshot();
  dlt::DatasetSpec spec = MakeSpec();

  core::DeploymentOptions dopts;
  dopts.num_client_nodes = kClientNodes;
  core::Deployment dep(dopts);

  auto writer = dep.MakeClient(0, 0, spec.name, 16 * 1024);
  EXPECT_TRUE(dlt::ForEachFile(spec, [&](const dlt::GeneratedFile& f) {
                return writer->Put(f.path, f.content);
              }).ok());
  EXPECT_TRUE(writer->Flush().ok());

  std::vector<std::unique_ptr<core::DieselClient>> clients;
  cache::TaskRegistry registry;
  for (uint32_t n = 0; n < kClientNodes; ++n) {
    for (uint32_t i = 0; i < kClientsPerNode; ++i) {
      clients.push_back(dep.MakeClient(n, i, spec.name));
      registry.Register(clients.back()->endpoint());
    }
  }
  for (auto& c : clients) EXPECT_TRUE(c->FetchSnapshot().ok());

  cache::TaskCacheOptions copts;
  copts.policy = cache::CachePolicy::kOneshot;
  // Sized for the chaos schedule: small backoffs so consecutive failures
  // land inside the flap window (tripping the breaker) while enough
  // attempts remain to ride the flap out, and a short breaker cooldown so
  // recovery is observed within the run.
  copts.retry.max_attempts = 8;
  copts.retry.initial_backoff = Micros(100);
  copts.breaker.cooldown = Micros(500);
  cache::TaskCache cache(dep.fabric(), dep.server(0),
                         *clients[0]->snapshot(), registry, copts);
  cache.EstablishConnections();
  EXPECT_TRUE(cache.Preload(0).ok());

  std::vector<std::unique_ptr<core::DatasetCacheInterface>> handles;
  for (auto& c : clients) {
    handles.push_back(cache.HandleFor(c->endpoint()));
    c->AttachCache(handles.back().get());
  }

  // Faults start with the read phase (ingest + preload ran clean). The
  // tracer rides along so every injected fault lands as a span annotation.
  std::unique_ptr<net::FaultInjector> inj;
  obs::Tracer tracer;
  if (plan != nullptr) {
    inj = std::make_unique<net::FaultInjector>(*plan);
    dep.fabric().set_fault_injector(inj.get());
    dep.fabric().set_tracer(&tracer);
  }

  const size_t n = spec.total_files();
  for (int epoch = 0; epoch < kEpochs; ++epoch) {
    if (kv_outage && epoch == 1) {
      // Machine crash on the first KV node between epochs: shards restart
      // empty and the server redrives metadata recovery from chunk headers.
      dep.kv().FailShardsOnNode(dep.kv_node(0));
      dep.kv().RestartShardsOnNode(dep.kv_node(0));
      sim::VirtualClock admin;
      auto recovered = dep.server(0).RecoverMetadata(admin, spec.name, 0);
      EXPECT_TRUE(recovered.ok()) << recovered.status().ToString();
    }
    std::vector<uint32_t> crcs;
    crcs.reserve(n);
    for (size_t k = 0; k < n; ++k) {
      size_t file = (k + static_cast<size_t>(epoch) * 17) % n;
      auto& client = clients[k % clients.size()];
      auto content = client->Get(dlt::FilePath(spec, file));
      EXPECT_TRUE(content.ok())
          << "epoch " << epoch << " file " << file << ": "
          << content.status().ToString();
      crcs.push_back(content.ok() ? Crc32c(content.value()) : 0);
    }
    out.crcs.push_back(std::move(crcs));
    Nanos end = 0;
    for (auto& c : clients) end = std::max(end, c->clock().now());
    out.epoch_end.push_back(end);
  }

  // Final sweep: after all scheduled faults have fired and recovered, every
  // file must verify against the generator (catches a corrupted chunk that
  // was re-owned during recovery).
  for (size_t i = 0; i < n; ++i) {
    auto content = clients[i % clients.size()]->Get(dlt::FilePath(spec, i));
    EXPECT_TRUE(content.ok()) << content.status().ToString();
    if (content.ok()) {
      EXPECT_TRUE(dlt::VerifyContent(spec, i, content.value())) << i;
    }
  }

  out.cache_stats = cache.stats();
  if (inj != nullptr) {
    out.fault_stats = inj->stats();
    out.trace_dump = tracer.TextDump();
    dep.fabric().set_fault_injector(nullptr);
    dep.fabric().set_tracer(nullptr);
  }
  out.metrics_delta = obs::Metrics().Snapshot().DeltaSince(reg_before);
  return out;
}

net::FaultPlan MakeChaosPlan(const RunOutput& baseline) {
  // Position the flap inside epoch 2 of the fault-free timeline and the
  // latency spike inside epoch 3; absolute timing in the chaos run shifts,
  // but reads span the same virtual window so the schedule still lands.
  Nanos e1 = baseline.epoch_end[0];
  Nanos e2 = baseline.epoch_end[1];
  Nanos e3 = baseline.epoch_end[2];
  net::FaultPlan plan;
  // The pinned default must roll RPC drops: the drop checks below run only
  // under it. Drop decisions hash virtual time, and 20260806 rolled none
  // once a server read stopped paying a chunk-record get (file records
  // became chunk-absolute). 20260807 drops 12 RPCs and still detects the
  // corruption.
  plan.seed = ChaosSeed(20260807);
  plan.rpc_drop_prob = 0.01;
  plan.fault_detect_timeout = Micros(200);
  // Long enough that per-read retry backoff cannot simply jump over it:
  // the breaker must trip, reads fail over, and recovery fires after
  // up_at. (The chaos run itself is slower than the baseline, so the
  // window lands earlier in its epochs — that is fine, reads span it
  // either way.)
  plan.node_flaps.push_back(
      {.node = kFlappedNode, .down_at = e1 / 2, .up_at = e2});
  plan.latency_spikes.push_back(
      {.start = e2, .end = e2 + (e3 - e2) / 2, .extra = Micros(25)});
  // One chunk owned by the flapped node (odd index -> node 1 of 2): its
  // re-fetch during recovery comes back corrupted.
  plan.corrupt_chunk_fetches = {1};
  return plan;
}

TEST(ChaosEquivalenceTest, FaultScheduleNeverChangesWhatIsRead) {
  RunOutput baseline = RunWorkload(nullptr, /*kv_outage=*/false);
  ASSERT_EQ(baseline.crcs.size(), static_cast<size_t>(kEpochs));
  ASSERT_EQ(baseline.epoch_end.size(), static_cast<size_t>(kEpochs));
  EXPECT_EQ(baseline.cache_stats.failovers, 0u);
  EXPECT_EQ(baseline.cache_stats.corruptions_detected, 0u);

  net::FaultPlan plan = MakeChaosPlan(baseline);
  RunOutput chaos = RunWorkload(&plan, /*kv_outage=*/true);

  // Correctness: same contents in the same per-epoch read order.
  ASSERT_EQ(chaos.crcs.size(), baseline.crcs.size());
  for (int e = 0; e < kEpochs; ++e) {
    EXPECT_EQ(chaos.crcs[e], baseline.crcs[e]) << "epoch " << e;
  }

  // The schedule actually fired: every fault category is visible. Random
  // drops are probabilistic — a sweep seed can legitimately roll zero —
  // so like corruption detection below they are only required under the
  // pinned default seed; schedule-driven categories hold for every seed.
  EXPECT_EQ(chaos.fault_stats.flaps_fired, 1u);
  if (std::getenv("DIESEL_CHAOS_SEED") == nullptr) {
    EXPECT_GT(chaos.fault_stats.rpc_drops, 0u);
  }
  EXPECT_GT(chaos.fault_stats.down_node_rejections, 0u);
  EXPECT_GT(chaos.fault_stats.latency_spike_hits, 0u);
  EXPECT_EQ(chaos.fault_stats.corruptions_injected, 1u);

  // And the recovery machinery reacted: degraded reads while the owner was
  // down, a breaker open and a recovery.
  EXPECT_GT(chaos.cache_stats.failovers, 0u);
  EXPECT_GE(chaos.cache_stats.breaker_opens, 1u);
  EXPECT_GE(chaos.cache_stats.node_recoveries, 1u);
  // Detection needs the corrupted copy to survive until a read touches the
  // flipped file; under some sweep seeds a second breaker trip discards it
  // first and the refetch is clean (injection is one-shot). The pinned
  // default seed is known to detect, so regressions in the CRC path still
  // fail here; sweep seeds only require detection never to exceed injection.
  if (std::getenv("DIESEL_CHAOS_SEED") == nullptr) {
    EXPECT_GE(chaos.cache_stats.corruptions_detected, 1u);
  }
  EXPECT_LE(chaos.cache_stats.corruptions_detected,
            chaos.fault_stats.corruptions_injected + 1);

  // Faults cost virtual time, never correctness.
  EXPECT_GT(chaos.epoch_end.back(), baseline.epoch_end.back());

  // Every injected fault category is visible in the span tree (drops only
  // under the pinned seed, for the reason above).
  EXPECT_FALSE(chaos.trace_dump.empty());
  if (std::getenv("DIESEL_CHAOS_SEED") == nullptr) {
    EXPECT_NE(chaos.trace_dump.find("fault.drop"), std::string::npos);
  }
  EXPECT_NE(chaos.trace_dump.find("fault.flap"), std::string::npos);
  EXPECT_NE(chaos.trace_dump.find("fault.latency_spike"), std::string::npos);
  EXPECT_NE(chaos.trace_dump.find("fault.corrupt"), std::string::npos);

  // The registry's process-wide counters agree with the hand-kept stats.
  const obs::MetricsSnapshot& d = chaos.metrics_delta;
  EXPECT_EQ(d.SumCounters("cache.local_hits"),
            chaos.cache_stats.local_hits);
  EXPECT_EQ(d.SumCounters("cache.peer_hits"), chaos.cache_stats.peer_hits);
  EXPECT_EQ(d.SumCounters("cache.failovers"), chaos.cache_stats.failovers);
  EXPECT_EQ(d.SumCounters("cache.breaker_opens"),
            chaos.cache_stats.breaker_opens);
  EXPECT_EQ(d.SumCounters("cache.node_recoveries"),
            chaos.cache_stats.node_recoveries);
  EXPECT_EQ(d.SumCounters("cache.corruptions_detected"),
            chaos.cache_stats.corruptions_detected);
  EXPECT_EQ(d.SumCounters("cache.chunk_loads"),
            chaos.cache_stats.chunk_loads);
  EXPECT_EQ(d.SumCounters("cache.evicted_bytes"),
            chaos.cache_stats.evicted_bytes);
  // No pins are taken in this workload (no prefetch scheduler attached),
  // and none may appear as a side effect of chaos recovery.
  EXPECT_EQ(chaos.cache_stats.pinned_chunks, 0u);
  EXPECT_EQ(d.SumCounters("net.rpc.drops"), chaos.fault_stats.rpc_drops);
  EXPECT_EQ(d.SumCounters("net.rpc.flap_rejects"),
            chaos.fault_stats.down_node_rejections);
  // The flapped node's re-own shows up as labeled progress.
  EXPECT_GT(d.SumCounters("cache.reown_chunks"), 0u);
  EXPECT_GT(d.SumCounters("kv.ops"), 0u);
}

TEST(ChaosEquivalenceTest, SameSeedReproducesChaosRunExactly) {
  RunOutput baseline = RunWorkload(nullptr, /*kv_outage=*/false);
  net::FaultPlan plan = MakeChaosPlan(baseline);

  RunOutput a = RunWorkload(&plan, /*kv_outage=*/true);
  RunOutput b = RunWorkload(&plan, /*kv_outage=*/true);

  EXPECT_EQ(a.crcs, b.crcs);
  EXPECT_EQ(a.epoch_end, b.epoch_end);  // identical virtual timelines
  EXPECT_EQ(a.fault_stats.rpc_drops, b.fault_stats.rpc_drops);
  EXPECT_EQ(a.fault_stats.down_node_rejections,
            b.fault_stats.down_node_rejections);
  EXPECT_EQ(a.fault_stats.latency_spike_hits,
            b.fault_stats.latency_spike_hits);
  EXPECT_EQ(a.fault_stats.corruptions_injected,
            b.fault_stats.corruptions_injected);
  EXPECT_EQ(a.fault_stats.flaps_fired, b.fault_stats.flaps_fired);
  EXPECT_EQ(a.cache_stats.failovers, b.cache_stats.failovers);
  EXPECT_EQ(a.cache_stats.breaker_opens, b.cache_stats.breaker_opens);
  EXPECT_EQ(a.cache_stats.node_recoveries, b.cache_stats.node_recoveries);
  EXPECT_EQ(a.cache_stats.corruptions_detected,
            b.cache_stats.corruptions_detected);

  // Same seed, same bytes: the traced span tree (timestamps, nesting and
  // fault annotations included) reproduces exactly, and so do the interval
  // metrics — including the KV retry counters the drops provoked.
  EXPECT_FALSE(a.trace_dump.empty());
  EXPECT_EQ(a.trace_dump, b.trace_dump);
  EXPECT_EQ(a.metrics_delta.SumCounters("kv.retries"),
            b.metrics_delta.SumCounters("kv.retries"));
  EXPECT_EQ(a.metrics_delta.counters, b.metrics_delta.counters);

  // A different seed rolls different drops (the schedule is seed-driven,
  // not incidental). Derived from the active seed so the sweep can never
  // collide the two.
  net::FaultPlan other = plan;
  other.seed = plan.seed + 1;
  RunOutput c = RunWorkload(&other, /*kv_outage=*/true);
  EXPECT_EQ(c.crcs, a.crcs);  // correctness is seed-independent
  EXPECT_NE(c.trace_dump, a.trace_dump);
}

}  // namespace
}  // namespace diesel
