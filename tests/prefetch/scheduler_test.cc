#include "prefetch/scheduler.h"

#include <algorithm>

#include <gtest/gtest.h>

#include "cache/task_cache.h"
#include "core/deployment.h"
#include "dlt/dataset_gen.h"
#include "membership/membership.h"
#include "net/fault_injector.h"
#include "obs/metrics.h"
#include "shuffle/shuffle.h"

namespace diesel::prefetch {
namespace {

constexpr size_t kNodes = 4;

struct RunOutcome {
  Nanos end = 0;
  uint64_t content_hash = 0;
  prefetch::PrefetchSchedulerStats sched;
  cache::TaskCacheStats cache;
};

uint64_t Fnv1a(uint64_t h, BytesView data) {
  for (uint8_t b : data) {
    h ^= b;
    h *= 1099511628211ULL;
  }
  return h;
}

/// Build a fresh deployment, ingest the dataset and drive two epochs of
/// plan-order reads through a capacity-bound cache, with or without a
/// prefetch scheduler and with an optional fault plan attached. Fully
/// self-contained so two invocations are independent and comparable.
/// `with_rescale` attaches a membership table and churns it mid-epoch:
/// a spare node joins halfway through epoch 0, and node 1 drains (start at
/// 1/4, depart at 3/4) during epoch 1 — the scheduler must retarget pending
/// fills and keep its accounting exact through all of it.
RunOutcome RunWorkload(uint64_t seed, bool with_scheduler,
                       const net::FaultPlan* faults = nullptr,
                       bool with_rescale = false) {
  core::DeploymentOptions dopts;
  dopts.num_client_nodes = kNodes + (with_rescale ? 1 : 0);
  core::Deployment dep(dopts);
  dlt::DatasetSpec spec;
  spec.name = "pfs";
  spec.num_classes = 2;
  spec.files_per_class = 64;
  spec.mean_file_bytes = 2048;
  spec.fixed_size = true;
  auto writer = dep.MakeClient(0, 9, spec.name, 16 * 1024);
  EXPECT_TRUE(dlt::ForEachFile(spec, [&](const dlt::GeneratedFile& f) {
                return writer->Put(f.path, f.content);
              }).ok());
  EXPECT_TRUE(writer->Flush().ok());
  dep.ResetDevices();

  std::vector<std::unique_ptr<core::DieselClient>> clients;
  cache::TaskRegistry registry;
  for (uint32_t n = 0; n < kNodes; ++n) {
    for (uint32_t i = 0; i < 2; ++i) {
      clients.push_back(dep.MakeClient(n, i, spec.name));
      registry.Register(clients.back()->endpoint());
    }
  }
  EXPECT_TRUE(clients[0]->FetchSnapshot().ok());
  const core::MetadataSnapshot& snap = *clients[0]->snapshot();

  std::unique_ptr<net::FaultInjector> injector;
  if (faults) {
    injector = std::make_unique<net::FaultInjector>(*faults);
    dep.fabric().set_fault_injector(injector.get());
  }

  uint64_t payload = 0;
  for (const auto& fm : snap.files()) payload += fm.length;
  cache::TaskCacheOptions copts;
  // Capacity-bound: each node owns ~4 chunks of its partition but can hold
  // only ~3 blobs (payload + chunk-header overhead), so eviction is live
  // while leaving headroom for one pinned fill beside the working set.
  copts.per_node_capacity_bytes = payload / kNodes * 3 / 4 + 4096;
  cache::TaskCache cache(dep.fabric(), dep.server(0), snap, registry, copts);
  cache.EstablishConnections();

  membership::MembershipTable table;
  if (with_rescale) {
    std::vector<sim::NodeId> initial(kNodes);
    for (size_t n = 0; n < kNodes; ++n) initial[n] = dep.client_node(n);
    table.Bootstrap(initial, 0);
    cache.AttachMembership(table);  // cache first: migration precedes retarget
  }

  std::unique_ptr<PrefetchScheduler> sched;
  if (with_scheduler) {
    sched = std::make_unique<PrefetchScheduler>(cache, dep.fabric(), snap,
                                                PrefetchOptions{});
    if (with_rescale) sched->AttachMembership(table);
  }

  RunOutcome out;
  out.content_hash = 14695981039346656037ULL;
  Rng rng(seed);
  sim::VirtualClock w;
  for (int epoch = 0; epoch < 2; ++epoch) {
    shuffle::ShufflePlan plan =
        shuffle::ChunkWiseShuffle(snap, {.group_size = 3}, rng);
    if (sched) sched->StartEpoch(plan, w.now());
    for (size_t pos = 0; pos < plan.file_order.size(); ++pos) {
      if (with_rescale && epoch == 0 && pos == plan.file_order.size() / 2) {
        table.Join(dep.client_node(kNodes), w.now());
      }
      if (with_rescale && epoch == 1) {
        if (pos == plan.file_order.size() / 4) table.StartDrain(1, w.now());
        if (pos == plan.file_order.size() * 3 / 4) {
          table.CompleteDrain(1, w.now());
        }
      }
      if (sched) sched->Advance(pos, w.now());
      const core::FileMeta& fm = snap.files()[plan.file_order[pos]];
      auto r = cache.GetFile(w, clients[0]->endpoint(), fm);
      EXPECT_TRUE(r.ok()) << r.status().ToString();
      if (!r.ok()) return out;
      out.content_hash = Fnv1a(out.content_hash, r->view());
      w.Advance(Micros(400));  // per-file compute, gives fills lead time
    }
    if (sched) sched->FinishEpoch();
  }
  out.end = w.now();
  if (sched) out.sched = sched->stats();
  out.cache = cache.stats();
  if (faults) dep.fabric().set_fault_injector(nullptr);
  return out;
}

TEST(PrefetchSchedulerTest, FillsRunAheadAndReduceForegroundTime) {
  RunOutcome off = RunWorkload(3, /*with_scheduler=*/false);
  RunOutcome on = RunWorkload(3, /*with_scheduler=*/true);
  // Same plans, same bytes delivered.
  EXPECT_EQ(off.content_hash, on.content_hash);
  // The scheduler actually worked and the foreground got cheaper.
  EXPECT_GT(on.sched.issued, 0u);
  EXPECT_GT(on.cache.prefetch_hits, 0u);
  EXPECT_LT(on.end, off.end);
}

TEST(PrefetchSchedulerTest, IssuedEqualsCompletedPlusCancelled) {
  RunOutcome on = RunWorkload(4, /*with_scheduler=*/true);
  EXPECT_EQ(on.sched.issued, on.sched.completed + on.sched.cancelled);
  // FinishEpoch released every pin.
  EXPECT_EQ(on.cache.pinned_chunks, 0u);
}

TEST(PrefetchSchedulerTest, DeterministicAcrossRuns) {
  RunOutcome a = RunWorkload(5, /*with_scheduler=*/true);
  RunOutcome b = RunWorkload(5, /*with_scheduler=*/true);
  EXPECT_EQ(a.end, b.end);
  EXPECT_EQ(a.content_hash, b.content_hash);
  EXPECT_EQ(a.sched.issued, b.sched.issued);
  EXPECT_EQ(a.sched.completed, b.sched.completed);
  EXPECT_EQ(a.sched.cancelled, b.sched.cancelled);
  EXPECT_EQ(a.sched.skipped_resident, b.sched.skipped_resident);
  EXPECT_EQ(a.sched.skipped_down, b.sched.skipped_down);
  EXPECT_EQ(a.cache.prefetch_hits, b.cache.prefetch_hits);
  EXPECT_EQ(a.cache.prefetch_late, b.cache.prefetch_late);
  EXPECT_EQ(a.cache.evicted_bytes, b.cache.evicted_bytes);
}

TEST(PrefetchSchedulerTest, NodeFlapsAndCorruptionDegradeGracefully) {
  net::FaultPlan plan;
  plan.seed = 21;
  plan.rpc_drop_prob = 0.02;
  // Two owner nodes flap mid-epoch; the scheduler must skip them and the
  // foreground's failover path must keep the task alive.
  plan.node_flaps.push_back({1, Millis(1), Millis(30)});
  plan.node_flaps.push_back({2, Millis(40), Millis(70)});
  // One prefetch fill returns a corrupted payload: CRC catches it and the
  // fetch retries.
  plan.corrupt_chunk_fetches = {0, 1};

  // Registry deltas bracket the run so the global counters can be checked
  // against the scheduler's own accounting.
  auto& m = obs::Metrics();
  uint64_t issued0 = m.GetCounter("prefetch.issued").value();
  uint64_t completed0 = m.GetCounter("prefetch.completed").value();
  uint64_t cancelled0 = m.GetCounter("prefetch.cancelled").value();

  RunOutcome chaos = RunWorkload(6, /*with_scheduler=*/true, &plan);
  // Every read was served (EXPECT inside RunWorkload) with CRC-verified
  // bytes; compare against a fault-free run for byte identity.
  RunOutcome clean = RunWorkload(6, /*with_scheduler=*/true);
  EXPECT_EQ(chaos.content_hash, clean.content_hash);

  // Aborted fills are fully accounted: issued == completed + cancelled both
  // in the scheduler stats and in the metrics registry.
  EXPECT_EQ(chaos.sched.issued,
            chaos.sched.completed + chaos.sched.cancelled);
  EXPECT_EQ(m.GetCounter("prefetch.issued").value() - issued0,
            (m.GetCounter("prefetch.completed").value() - completed0) +
                (m.GetCounter("prefetch.cancelled").value() - cancelled0));
  // No stuck pins after the run.
  EXPECT_EQ(chaos.cache.pinned_chunks, 0u);
  // The flapped owners were skipped at issue time at least once.
  EXPECT_GT(chaos.sched.skipped_down, 0u);
}

TEST(PrefetchSchedulerTest, MidEpochRescaleKeepsInvariantsAndBytes) {
  RunOutcome churn =
      RunWorkload(8, /*with_scheduler=*/true, nullptr, /*with_rescale=*/true);
  RunOutcome clean = RunWorkload(8, /*with_scheduler=*/true);
  // Join + drain-start + drain-complete moved chunks under the scheduler's
  // feet, yet every read returned the same bytes as the static run.
  EXPECT_EQ(churn.content_hash, clean.content_hash);
  // The accounting identity holds across rescales, and no pin leaked.
  EXPECT_EQ(churn.sched.issued,
            churn.sched.completed + churn.sched.cancelled);
  EXPECT_EQ(churn.cache.pinned_chunks, 0u);
  // All three mid-epoch membership changes reached the scheduler, and at
  // least one pending fill was re-bucketed to its new owner.
  EXPECT_GE(churn.sched.rescales, 3u);
  EXPECT_GT(churn.sched.retargeted, 0u);
  EXPECT_GT(churn.cache.migrated_chunks, 0u);
}

/// Largest number of chunks whose payloads fit in `budget` together: the
/// most pins any set of chunks can hold within the budget.
size_t MaxChunksWithin(const core::MetadataSnapshot& snap, uint64_t budget) {
  std::vector<uint64_t> payloads(snap.chunks().size(), 0);
  for (size_t ci = 0; ci < payloads.size(); ++ci) {
    for (uint32_t fi : snap.FilesOfChunk(ci)) {
      payloads[ci] += snap.files()[fi].length;
    }
  }
  std::sort(payloads.begin(), payloads.end());
  size_t n = 0;
  for (uint64_t sum = 0; n < payloads.size(); ++n) {
    sum += payloads[n];
    if (sum > budget) break;
  }
  return n;
}

struct PinOutcome {
  size_t max_pinned = 0;  // most chunks pinned after any Advance
  size_t bound = 0;       // most chunks half the partition can hold
  uint64_t issued = 0;
};

/// One owner node, so the cache's pin count is that node's. Drives one
/// epoch of plan-order reads through a cache of `capacity` bytes and
/// records the most chunks the scheduler held pinned at once.
PinOutcome RunPinned(uint64_t capacity) {
  core::DeploymentOptions dopts;
  dopts.num_client_nodes = 1;
  core::Deployment dep(dopts);
  dlt::DatasetSpec spec;
  spec.name = "pins";
  spec.num_classes = 2;
  spec.files_per_class = 64;
  spec.mean_file_bytes = 2048;
  spec.fixed_size = true;
  auto writer = dep.MakeClient(0, 9, spec.name, 16 * 1024);
  EXPECT_TRUE(dlt::ForEachFile(spec, [&](const dlt::GeneratedFile& f) {
                return writer->Put(f.path, f.content);
              }).ok());
  EXPECT_TRUE(writer->Flush().ok());
  dep.ResetDevices();

  auto client = dep.MakeClient(0, 0, spec.name);
  cache::TaskRegistry registry;
  registry.Register(client->endpoint());
  EXPECT_TRUE(client->FetchSnapshot().ok());
  const core::MetadataSnapshot& snap = *client->snapshot();
  cache::TaskCache cache(dep.fabric(), dep.server(0), snap, registry,
                         {.per_node_capacity_bytes = capacity});
  cache.EstablishConnections();
  PrefetchScheduler sched(cache, dep.fabric(), snap, PrefetchOptions{});

  PinOutcome out;
  out.bound = MaxChunksWithin(snap, capacity / 2);
  Rng rng(11);
  shuffle::ShufflePlan plan =
      shuffle::ChunkWiseShuffle(snap, {.group_size = 3}, rng);
  sim::VirtualClock w;
  sched.StartEpoch(plan, w.now());
  for (size_t pos = 0; pos < plan.file_order.size(); ++pos) {
    sched.Advance(pos, w.now());
    out.max_pinned = std::max<size_t>(out.max_pinned,
                                      cache.stats().pinned_chunks);
    const core::FileMeta& fm = snap.files()[plan.file_order[pos]];
    EXPECT_TRUE(cache.GetFile(w, client->endpoint(), fm).ok());
    w.Advance(Micros(400));  // per-file compute, gives fills lead time
  }
  sched.FinishEpoch();
  out.issued = sched.stats().issued;
  return out;
}

TEST(PrefetchSchedulerTest, PinnedBytesStayWithinHalfThePartition) {
  // Each chunk carries 16 KiB of payload. The partition holds ~10 chunks
  // and half of it holds 5: fills pin several chunks at once, and never
  // more than that half holds.
  PinOutcome half = RunPinned(160 * 1024);
  EXPECT_EQ(half.bound, 5u);
  EXPECT_GE(half.max_pinned, 2u);
  EXPECT_LE(half.max_pinned, half.bound);

  // Half of a 24 KiB partition holds no whole chunk. The first fill
  // still goes through, and it is the only pin.
  PinOutcome oversized = RunPinned(24 * 1024);
  EXPECT_EQ(oversized.bound, 0u);
  EXPECT_GT(oversized.issued, 0u);
  EXPECT_EQ(oversized.max_pinned, 1u);
}

TEST(PrefetchSchedulerTest, RescaleRunsAreDeterministic) {
  RunOutcome a =
      RunWorkload(9, /*with_scheduler=*/true, nullptr, /*with_rescale=*/true);
  RunOutcome b =
      RunWorkload(9, /*with_scheduler=*/true, nullptr, /*with_rescale=*/true);
  EXPECT_EQ(a.end, b.end);
  EXPECT_EQ(a.content_hash, b.content_hash);
  EXPECT_EQ(a.sched.issued, b.sched.issued);
  EXPECT_EQ(a.sched.cancelled, b.sched.cancelled);
  EXPECT_EQ(a.sched.retargeted, b.sched.retargeted);
  EXPECT_EQ(a.cache.migrated_chunks, b.cache.migrated_chunks);
  EXPECT_EQ(a.cache.migrated_bytes, b.cache.migrated_bytes);
}

}  // namespace
}  // namespace diesel::prefetch
