// Elastic membership integration: planned mid-epoch rescale, drain
// semantics, crash re-own. The headline property: an 8 -> 12 planned
// rescale in the middle of a read epoch completes with ZERO failed reads
// and byte-correct contents, and moves only the consistent-hashing share
// of the chunks — never a stall-the-world rebuild.
#include <gtest/gtest.h>

#include <memory>
#include <tuple>
#include <unordered_set>
#include <vector>

#include "cache/task_cache.h"
#include "common/rng.h"
#include "core/deployment.h"
#include "dlt/dataset_gen.h"
#include "membership/membership.h"
#include "obs/metrics.h"
#include "sim/clock.h"
#include "tests/testutil/flightrec_listener.h"

namespace diesel {
namespace {

struct Harness {
  dlt::DatasetSpec spec;
  std::unique_ptr<core::Deployment> dep;
  std::vector<std::unique_ptr<core::DieselClient>> clients;
  cache::TaskRegistry registry;
  std::unique_ptr<cache::TaskCache> cache;
  membership::MembershipTable table;

  const core::MetadataSnapshot& snap() const { return *clients[0]->snapshot(); }

  const core::FileMeta& File(size_t index) const {
    const core::FileMeta* meta = snap().Lookup(dlt::FilePath(spec, index));
    EXPECT_NE(meta, nullptr) << "file " << index;
    return *meta;
  }
};

/// Deployment with `total_nodes` client nodes; dataset ingested; a oneshot
/// cache preloaded over the first `members` nodes (2 clients per member
/// node) with the membership table attached.
std::unique_ptr<Harness> MakeHarness(size_t members, size_t total_nodes,
                                     size_t files = 600) {
  auto h = std::make_unique<Harness>();
  h->spec.name = "rescale";
  h->spec.num_classes = 10;
  h->spec.files_per_class = files / 10;
  h->spec.mean_file_bytes = 2048;
  h->spec.fixed_size = true;

  core::DeploymentOptions dopts;
  dopts.num_client_nodes = total_nodes;
  h->dep = std::make_unique<core::Deployment>(dopts);
  auto writer = h->dep->MakeClient(0, 99, h->spec.name, 16 * 1024);
  EXPECT_TRUE(dlt::ForEachFile(h->spec, [&](const dlt::GeneratedFile& f) {
                return writer->Put(f.path, f.content);
              }).ok());
  EXPECT_TRUE(writer->Flush().ok());
  h->dep->ResetDevices();

  for (size_t n = 0; n < members; ++n) {
    for (uint32_t i = 0; i < 2; ++i) {
      h->clients.push_back(h->dep->MakeClient(n, i, h->spec.name));
      h->registry.Register(h->clients.back()->endpoint());
    }
  }
  EXPECT_TRUE(h->clients[0]->FetchSnapshot().ok());

  cache::TaskCacheOptions copts;
  copts.policy = cache::CachePolicy::kOneshot;
  h->cache = std::make_unique<cache::TaskCache>(
      h->dep->fabric(), h->dep->server(0), h->snap(), h->registry, copts);
  h->cache->EstablishConnections();

  std::vector<sim::NodeId> initial(members);
  for (size_t i = 0; i < members; ++i) initial[i] = h->dep->client_node(i);
  h->table.Bootstrap(initial, 0);
  h->cache->AttachMembership(h->table);
  EXPECT_TRUE(h->cache->Preload(0).ok());
  return h;
}

TEST(RescaleTest, MidEpochPlannedRescale8To12HasZeroFailedReads) {
  auto h = MakeHarness(/*members=*/8, /*total_nodes=*/12, /*files=*/1200);
  const size_t total_chunks = h->snap().chunks().size();
  ASSERT_GT(total_chunks, 50u);

  obs::MetricsSnapshot before = obs::Metrics().Snapshot();

  // Closed-loop epoch over 16 clients; 40% in, four nodes join — the
  // planned 8 -> 12 rescale — while reads keep flowing.
  Rng rng(17);
  std::vector<uint32_t> order(h->snap().num_files());
  for (uint32_t i = 0; i < order.size(); ++i) order[i] = i;
  rng.Shuffle(order);
  std::vector<sim::VirtualClock> clocks(h->clients.size(),
                                        sim::VirtualClock(0));
  const size_t rescale_at = order.size() * 2 / 5;
  size_t cursor = 0, failed = 0;
  sim::DriveEarliestFirst(
      clocks.size(), [&](size_t c) { return clocks[c].now(); },
      [&](size_t c) {
        if (cursor == order.size()) return false;
        if (cursor == rescale_at) {
          for (size_t n = 8; n < 12; ++n) {
            h->table.Join(h->dep->client_node(n), clocks[c].now());
          }
          EXPECT_EQ(h->table.NumActive(), 12u);
        }
        uint32_t file = order[cursor++];
        auto r = h->cache->GetFile(clocks[c], h->clients[c]->endpoint(),
                                   h->File(file));
        if (!r.ok()) {
          ++failed;
          return true;
        }
        EXPECT_TRUE(dlt::VerifyContent(h->spec, file, r->view()))
            << "file " << file;
        return true;
      });
  EXPECT_EQ(failed, 0u);  // the acceptance bar: zero failed reads

  // Only the consistent-hashing share moved: the four joiners own ~1/3 of
  // the space, so migrations stay well clear of a full reshuffle.
  auto stats = h->cache->stats();
  double moved = static_cast<double>(stats.migrated_chunks) /
                 static_cast<double>(total_chunks);
  EXPECT_GT(moved, 0.10);
  EXPECT_LT(moved, 0.60);
  EXPECT_GT(stats.migrated_bytes, 0u);
  EXPECT_EQ(stats.reown_chunks, 0u);  // planned: the backend is never re-hit

  // Every new owner answers for its chunks after the dust settles.
  sim::VirtualClock sweep(h->cache->last_transition_end());
  for (size_t i = 0; i < h->snap().num_files(); ++i) {
    auto r = h->cache->GetFile(sweep, h->clients[0]->endpoint(), h->File(i));
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_TRUE(dlt::VerifyContent(h->spec, i, r->view()));
  }
  EXPECT_EQ(h->cache->migrations_in_flight(), 0u);

  // Registry mirror agrees with the hand-kept stats.
  obs::MetricsSnapshot d = obs::Metrics().Snapshot().DeltaSince(before);
  EXPECT_EQ(d.SumCounters("membership.migrated_chunks"),
            stats.migrated_chunks);
  EXPECT_EQ(d.SumCounters("membership.migrated_bytes"), stats.migrated_bytes);
  EXPECT_EQ(d.SumCounters("membership.joins"), 4u);
}

TEST(RescaleTest, SingleJoinMovesAboutOneNthOfBytes) {
  auto h = MakeHarness(/*members=*/8, /*total_nodes=*/9);
  const size_t total_chunks = h->snap().chunks().size();
  uint64_t resident = h->cache->stats().bytes_cached;
  ASSERT_GT(resident, 0u);

  h->table.Join(h->dep->client_node(8), Millis(1));

  auto stats = h->cache->stats();
  double moved_chunks = static_cast<double>(stats.migrated_chunks) /
                        static_cast<double>(total_chunks);
  double moved_bytes = static_cast<double>(stats.migrated_bytes) /
                       static_cast<double>(resident);
  double ideal = 1.0 / 9.0;
  EXPECT_GT(moved_chunks, ideal / 4);
  EXPECT_LT(moved_chunks, ideal * 4);
  EXPECT_GT(moved_bytes, ideal / 4);
  EXPECT_LT(moved_bytes, ideal * 4);

  // Let every migration land, then total resident bytes are conserved:
  // chunks moved, they were not duplicated or dropped.
  sim::VirtualClock sweep(h->cache->last_transition_end());
  for (size_t i = 0; i < h->snap().num_files(); ++i) {
    auto r = h->cache->GetFile(sweep, h->clients[0]->endpoint(), h->File(i));
    ASSERT_TRUE(r.ok());
  }
  EXPECT_EQ(h->cache->migrations_in_flight(), 0u);
  EXPECT_EQ(h->cache->stats().bytes_cached, resident);
  EXPECT_EQ(h->cache->stats().chunk_loads,
            static_cast<uint64_t>(total_chunks));  // preload only
}

TEST(RescaleTest, DrainServesReadsUntilMovesLandThenDeparts) {
  auto h = MakeHarness(/*members=*/4, /*total_nodes=*/4);
  const auto& snap = h->snap();
  const sim::NodeId victim = h->dep->client_node(1);

  // Chunks the victim owns before the drain.
  std::unordered_set<size_t> victims_chunks;
  for (size_t ci = 0; ci < snap.chunks().size(); ++ci) {
    if (h->cache->OwnerNodeOfChunk(ci).value() == victim) {
      victims_chunks.insert(ci);
    }
  }
  ASSERT_FALSE(victims_chunks.empty());
  uint64_t resident = h->cache->stats().bytes_cached;

  // Announce the drain, then immediately read files on the moved chunks:
  // the migrations have not landed yet (their arrival is in the future),
  // so the draining node itself serves them — no stall, no failure.
  Nanos drain_at = Millis(1);
  h->table.StartDrain(victim, drain_at);
  EXPECT_GT(h->cache->migrations_in_flight(), 0u);
  sim::VirtualClock early(drain_at);
  size_t reads_during_drain = 0;
  for (size_t i = 0; i < snap.num_files() && reads_during_drain < 20; ++i) {
    const core::FileMeta& fm = h->File(i);
    if (victims_chunks.count(snap.ChunkIndex(fm.chunk)) == 0) continue;
    auto r = h->cache->GetFile(early, h->clients[0]->endpoint(), fm);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_TRUE(dlt::VerifyContent(h->spec, i, r->view()));
    ++reads_during_drain;
  }
  EXPECT_GT(reads_during_drain, 0u);

  // Depart. All in-flight moves finalize, the drained partition drops, and
  // nothing the task reads is lost: bytes are conserved and the backend is
  // never re-hit.
  h->table.CompleteDrain(victim, h->cache->last_transition_end() + Millis(1));
  EXPECT_EQ(h->cache->migrations_in_flight(), 0u);
  EXPECT_EQ(h->cache->stats().bytes_cached, resident);
  sim::VirtualClock late(h->cache->last_transition_end() + Millis(1));
  for (size_t i = 0; i < snap.num_files(); ++i) {
    auto r = h->cache->GetFile(late, h->clients[0]->endpoint(), h->File(i));
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(dlt::VerifyContent(h->spec, i, r->view()));
  }
  EXPECT_EQ(h->cache->stats().reown_chunks, 0u);
  for (size_t ci : victims_chunks) {
    EXPECT_NE(h->cache->OwnerNodeOfChunk(ci).value(), victim);
  }
}

/// Oracle marking every odd chunk dead for the rest of the epoch.
class OddChunksDead : public cache::EvictionOracle {
 public:
  uint64_t NextAccessAfter(size_t chunk_index, uint64_t cursor) const override {
    return chunk_index % 2 == 0 ? cursor + 1 : kNever;
  }
};

TEST(RescaleTest, CrashReownSkipsOracleDeadChunks) {
  auto h = MakeHarness(/*members=*/4, /*total_nodes=*/4);
  const auto& snap = h->snap();
  const sim::NodeId victim = h->dep->client_node(2);

  std::vector<size_t> victims_chunks;
  for (size_t ci = 0; ci < snap.chunks().size(); ++ci) {
    if (h->cache->OwnerNodeOfChunk(ci).value() == victim) {
      victims_chunks.push_back(ci);
    }
  }
  size_t dead = 0, live = 0;
  for (size_t ci : victims_chunks) (ci % 2 == 0 ? live : dead) += 1;
  ASSERT_GT(dead, 0u);
  ASSERT_GT(live, 0u);

  OddChunksDead oracle;
  h->cache->InstallEvictionOracle(&oracle);
  h->cache->SetEpochCursor(0);

  h->table.Crash(victim, Millis(5));

  // The lost partition re-owned only what the epoch will still touch; the
  // dead half was skipped and counted.
  auto stats = h->cache->stats();
  EXPECT_EQ(stats.reown_chunks, live);
  EXPECT_EQ(stats.reown_skipped, dead);
  EXPECT_EQ(stats.migrated_chunks, 0u);  // crash: nothing streams peer-to-peer
  for (size_t ci : victims_chunks) {
    EXPECT_EQ(h->cache->ChunkResident(ci), ci % 2 == 0) << "chunk " << ci;
  }

  // A dead chunk is still readable on demand (miss -> backend load).
  h->cache->InstallEvictionOracle(nullptr);
  sim::VirtualClock clock(h->cache->last_transition_end());
  for (size_t i = 0; i < snap.num_files(); ++i) {
    auto r = h->cache->GetFile(clock, h->clients[0]->endpoint(), h->File(i));
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(dlt::VerifyContent(h->spec, i, r->view()));
  }
}

TEST(RescaleTest, RecoverAfterCrashRestoresOwnershipAndBytes) {
  auto h = MakeHarness(/*members=*/4, /*total_nodes=*/4);
  const auto& snap = h->snap();
  const sim::NodeId victim = h->dep->client_node(0);
  std::vector<sim::NodeId> before(snap.chunks().size());
  for (size_t ci = 0; ci < before.size(); ++ci) {
    before[ci] = h->cache->OwnerNodeOfChunk(ci).value();
  }

  h->table.Crash(victim, Millis(1));
  Nanos recover_at = h->cache->last_transition_end() + Millis(1);
  h->table.Recover(victim, recover_at);

  // Consistent hashing sends exactly the old chunks home again; recovery is
  // a planned change, so they stream from the peers that re-owned them.
  sim::VirtualClock sweep(h->cache->last_transition_end());
  size_t moved_home = 0;
  for (size_t ci = 0; ci < before.size(); ++ci) {
    EXPECT_EQ(h->cache->OwnerNodeOfChunk(ci).value(), before[ci]);
    moved_home += before[ci] == victim ? 1 : 0;
  }
  EXPECT_GT(moved_home, 0u);
  EXPECT_GE(h->cache->stats().migrated_chunks, moved_home);
  for (size_t i = 0; i < snap.num_files(); ++i) {
    auto r = h->cache->GetFile(sweep, h->clients[0]->endpoint(), h->File(i));
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(dlt::VerifyContent(h->spec, i, r->view()));
  }
  EXPECT_EQ(h->cache->migrations_in_flight(), 0u);
}

TEST(RescaleTest, ChurnTimelineIsDeterministic) {
  auto run = [] {
    auto h = MakeHarness(/*members=*/4, /*total_nodes=*/6);
    h->table.Join(h->dep->client_node(4), Millis(1));
    h->table.Crash(h->dep->client_node(1), Millis(2));
    h->table.StartDrain(h->dep->client_node(2), Millis(3));
    h->table.CompleteDrain(h->dep->client_node(2), Millis(6));
    h->table.Recover(h->dep->client_node(1), Millis(8));
    auto stats = h->cache->stats();
    return std::tuple<Nanos, uint64_t, uint64_t, uint64_t>(
        h->cache->last_transition_end(), stats.migrated_chunks,
        stats.migrated_bytes, stats.reown_chunks);
  };
  EXPECT_EQ(run(), run());
}

}  // namespace
}  // namespace diesel
