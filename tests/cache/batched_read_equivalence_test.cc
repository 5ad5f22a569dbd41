// Property test for the coalesced read path: for any seed, a batched run
// (TaskCache::GetFiles, groups of 16) and an unbatched run (GetFile per
// file) over the same shuffled read order must produce byte-identical file
// contents and identical hit/load/corruption accounting — batching may only
// change virtual time and RPC counts, never what was read or how the cache
// behaved. Runs include fault injection (drops, latency spikes, payload
// corruption) with a generous retry budget so every read still succeeds
// through the peer path. Each pinned seed also pins both runs' virtual end
// time and RPC count, so the timing of the retry/backoff path is guarded.
//
// DIESEL_CHAOS_SEED=<n> replays one fresh fault schedule instead (the
// nightly sweep); pins apply only to the seeds that have them.
#include <gtest/gtest.h>

#include <cstdlib>

#include "cache/task_cache.h"
#include "common/rng.h"
#include "core/deployment.h"
#include "dlt/dataset_gen.h"
#include "net/fault_injector.h"

namespace diesel::cache {
namespace {

struct RunOutput {
  std::vector<Bytes> contents;
  TaskCacheStats stats;
  uint64_t rpcs = 0;
  Nanos end = 0;
};

constexpr size_t kGroup = 16;  // files per read batch (a mini-batch)

RunOutput RunReads(uint64_t seed, bool batched) {
  core::DeploymentOptions dopts;
  dopts.num_client_nodes = 4;
  core::Deployment dep(dopts);

  dlt::DatasetSpec spec;
  spec.name = "eq";
  spec.num_classes = 2;
  spec.files_per_class = 48;
  spec.mean_file_bytes = 2048;
  auto writer = dep.MakeClient(0, 0, spec.name, 16 * 1024);
  EXPECT_TRUE(dlt::ForEachFile(spec, [&](const dlt::GeneratedFile& f) {
                return writer->Put(f.path, f.content);
              }).ok());
  EXPECT_TRUE(writer->Flush().ok());

  std::vector<std::unique_ptr<core::DieselClient>> clients;
  TaskRegistry registry;
  for (uint32_t n = 0; n < 4; ++n) {
    for (uint32_t i = 0; i < 2; ++i) {
      clients.push_back(dep.MakeClient(n, i, spec.name));
      registry.Register(clients.back()->endpoint());
    }
  }
  EXPECT_TRUE(clients[0]->FetchSnapshot().ok());
  const core::MetadataSnapshot* snap = clients[0]->snapshot();

  TaskCacheOptions copts;
  // Generous retry: every dropped RPC is retried until it lands, so both
  // runs serve every remote read through the peer path (no breaker opens,
  // no degraded fallbacks — those would legitimately diverge).
  copts.retry.max_attempts = 64;
  copts.retry.deadline_budget = 0;
  copts.breaker.failure_threshold = 1000;
  TaskCache cache(dep.fabric(), dep.server(0), *snap, registry, copts);

  // Faults attach after the write phase so the dataset itself is clean.
  net::FaultPlan plan;
  plan.seed = seed;
  plan.rpc_drop_prob = 0.05;
  plan.latency_spikes.push_back({Millis(1), Millis(3), Micros(50)});
  plan.corrupt_chunk_fetches = {0, 2, 5};
  net::FaultInjector injector(plan);
  dep.fabric().set_fault_injector(&injector);

  // Seeded shuffled read order, identical for both runs.
  std::vector<size_t> order(spec.total_files());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  Rng rng(seed);
  for (size_t i = order.size() - 1; i > 0; --i) {
    std::swap(order[i], order[rng.Uniform(i + 1)]);
  }

  RunOutput out;
  sim::VirtualClock clock;
  for (size_t g = 0; g < order.size(); g += kGroup) {
    size_t end = std::min(g + kGroup, order.size());
    std::vector<core::FileMeta> metas;
    for (size_t i = g; i < end; ++i) {
      const core::FileMeta* m =
          snap->Lookup(dlt::FilePath(spec, order[i]));
      EXPECT_NE(m, nullptr);
      metas.push_back(*m);
    }
    net::EndpointId requester = clients[0]->endpoint();
    if (batched) {
      auto slices = cache.GetFiles(clock, requester, metas);
      EXPECT_TRUE(slices.ok()) << slices.status().ToString();
      for (core::FileSlice& s : slices.value()) {
        out.contents.push_back(s.ToBytes());
      }
    } else {
      for (const core::FileMeta& m : metas) {
        auto content = cache.GetFile(clock, requester, m);
        EXPECT_TRUE(content.ok()) << content.status().ToString();
        out.contents.push_back(content->ToBytes());
      }
    }
  }
  out.stats = cache.stats();
  out.rpcs = dep.fabric().rpcs_issued();
  out.end = clock.now();
  dep.fabric().set_fault_injector(nullptr);
  return out;
}

/// Virtual end time and fabric RPC count of both runs for one seed.
struct Pin {
  uint64_t seed;
  Nanos unbatched_end;
  uint64_t unbatched_rpcs;
  Nanos batched_end;
  uint64_t batched_rpcs;
};

constexpr Pin kPins[] = {
    {1, 34845684, 292, 19936153, 240},  {2, 29059072, 292, 14918407, 239},
    {3, 56400492, 296, 26424886, 240},  {5, 45339971, 293, 14923437, 240},
    {7, 29059072, 292, 4537746, 239},   {11, 46168457, 293, 25272350, 241},
    {13, 62328825, 294, 15798386, 238}, {42, 23660495, 293, 15524804, 239},
};

std::vector<uint64_t> SeedsUnderTest() {
  if (const char* env = std::getenv("DIESEL_CHAOS_SEED")) {
    return {std::strtoull(env, nullptr, 10)};
  }
  std::vector<uint64_t> seeds;
  for (const Pin& pin : kPins) seeds.push_back(pin.seed);
  return seeds;
}

class BatchedReadEquivalenceTest : public ::testing::TestWithParam<uint64_t> {
};

TEST_P(BatchedReadEquivalenceTest, BatchedMatchesUnbatchedUnderFaults) {
  const uint64_t seed = GetParam();
  RunOutput unbatched = RunReads(seed, /*batched=*/false);
  RunOutput batched = RunReads(seed, /*batched=*/true);

  // Byte-identical contents, in the same order.
  ASSERT_EQ(batched.contents.size(), unbatched.contents.size());
  for (size_t i = 0; i < batched.contents.size(); ++i) {
    ASSERT_EQ(batched.contents[i], unbatched.contents[i]) << "file " << i;
  }

  // Identical cache behavior: same hits, same backend loads, same detected
  // corruptions. (Virtual time and RPC counts are allowed — required,
  // even — to differ; that is the point of batching.)
  EXPECT_EQ(batched.stats.local_hits, unbatched.stats.local_hits);
  EXPECT_EQ(batched.stats.peer_hits, unbatched.stats.peer_hits);
  EXPECT_EQ(batched.stats.chunk_loads, unbatched.stats.chunk_loads);
  EXPECT_EQ(batched.stats.corruptions_detected,
            unbatched.stats.corruptions_detected);
  EXPECT_EQ(batched.stats.failovers, 0u);
  EXPECT_EQ(unbatched.stats.failovers, 0u);
  // Injected corruptions were actually exercised.
  EXPECT_EQ(batched.stats.corruptions_detected, 3u);

  // Coalescing must cut the RPC count.
  EXPECT_LT(batched.rpcs, unbatched.rpcs);

  for (const Pin& pin : kPins) {
    if (pin.seed != seed) continue;
    EXPECT_EQ(unbatched.end, pin.unbatched_end);
    EXPECT_EQ(unbatched.rpcs, pin.unbatched_rpcs);
    EXPECT_EQ(batched.end, pin.batched_end);
    EXPECT_EQ(batched.rpcs, pin.batched_rpcs);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BatchedReadEquivalenceTest,
                         ::testing::ValuesIn(SeedsUnderTest()));

}  // namespace
}  // namespace diesel::cache
