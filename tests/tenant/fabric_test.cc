// CacheFabric unit tests: directory dedup, demote/adopt accounting,
// weighted fair eviction and departed-residue priority — all against the
// raw fabric, no deployment.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/chunk_format.h"
#include "net/fabric.h"
#include "obs/metrics.h"
#include "sim/node.h"
#include "tenant/fabric.h"

namespace diesel::tenant {
namespace {

core::ChunkBuffer MakeBuffer(size_t bytes, uint8_t fill) {
  return core::ChunkBuffer::Wrap(ShareBytes(Bytes(bytes, fill)));
}

/// A real chunk of `files` files filled with `fill`, so the buffer's CRC
/// memo has one bit per file.
core::ChunkBuffer MakeChunk(size_t files, uint8_t fill) {
  core::ChunkBuilder builder;
  for (size_t i = 0; i < files; ++i) {
    builder.Add("/f" + std::to_string(i), Bytes(64, fill));
  }
  return core::ChunkBuffer::Wrap(ShareBytes(builder.Finish({}, 0)));
}

class FabricTest : public ::testing::Test {
 protected:
  sim::Cluster cluster_{4};
  net::Fabric net_{cluster_};
};

TEST_F(FabricTest, PublishThenAdoptSharesTheSameBytes) {
  CacheFabric fabric(net_, {});
  TenantBinding* a = fabric.RegisterTenant("ds", {.name = "a"});
  TenantBinding* b = fabric.RegisterTenant("ds", {.name = "b"});

  core::ChunkBuffer buf = MakeChunk(2, 0x5a);
  buf.MarkVerified(0);
  a->Publish(0, 7, buf, 0);
  EXPECT_EQ(fabric.resident_chunks(), 1u);
  EXPECT_EQ(fabric.resident_bytes(), buf.size());

  sim::VirtualClock clock;
  auto adopted = b->Adopt(clock, 1, 7);
  ASSERT_TRUE(adopted.ok());
  // Refcount share, not a copy: same underlying blob.
  EXPECT_EQ(adopted->shared_blob().get(), buf.shared_blob().get());
  // The CRC memo travels with the chunk: it is the buffer's own, so a check
  // the adopter records is seen by the publisher too.
  EXPECT_TRUE(adopted->Verified(0));
  EXPECT_FALSE(adopted->Verified(1));
  adopted->MarkVerified(1);
  EXPECT_TRUE(buf.Verified(1));
  // Cross-node adoption charges virtual time.
  EXPECT_GT(clock.now(), 0u);

  auto stats = fabric.Stats();
  ASSERT_EQ(stats.size(), 2u);
  EXPECT_EQ(stats[0].shared_hits, 1u);   // a's bytes served b
  EXPECT_EQ(stats[1].adopted_chunks, 1u);
}

TEST_F(FabricTest, AdoptMissesAreNotFound) {
  CacheFabric fabric(net_, {});
  TenantBinding* a = fabric.RegisterTenant("ds", {.name = "a"});
  sim::VirtualClock clock;
  auto r = a->Adopt(clock, 0, 3);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsNotFound());
}

TEST_F(FabricTest, TenantsOnDifferentDatasetsNeverShare) {
  CacheFabric fabric(net_, {});
  TenantBinding* a = fabric.RegisterTenant("ds1", {.name = "a"});
  TenantBinding* b = fabric.RegisterTenant("ds2", {.name = "b"});
  a->Publish(0, 0, MakeBuffer(128, 1), 0);
  sim::VirtualClock clock;
  EXPECT_FALSE(b->Adopt(clock, 1, 0).ok());
}

TEST_F(FabricTest, DemoteRetainsResidencyAndDedups) {
  CacheFabric fabric(net_, {});
  TenantBinding* a = fabric.RegisterTenant("ds", {.name = "a"});
  core::ChunkBuffer buf = MakeBuffer(512, 0x11);
  EXPECT_EQ(a->Demote(0, 1, buf, 0), 512u);
  // Demoting (or publishing) an already-shared chunk retains it — no double
  // charge, still one entry.
  EXPECT_EQ(a->Demote(0, 1, buf, 0), 512u);
  EXPECT_EQ(fabric.resident_chunks(), 1u);
  EXPECT_EQ(fabric.resident_bytes(), 512u);
  EXPECT_EQ(fabric.Stats()[0].demoted_chunks, 2u);
}

TEST_F(FabricTest, CapacityEvictsFromHeaviestTenantPerWeight) {
  FabricOptions fopts;
  fopts.capacity_bytes = 4 * 512;
  CacheFabric fabric(net_, fopts);
  TenantBinding* big = fabric.RegisterTenant("ds", {.name = "big"});
  TenantBinding* small = fabric.RegisterTenant("ds2", {.name = "small"});
  for (size_t ci = 0; ci < 4; ++ci) {
    big->Publish(0, ci, MakeBuffer(512, 1), 0);
  }
  // The fabric is full of big's bytes; small's publish must evict from big
  // (highest bytes/weight), and big's loss is attributed to small.
  small->Publish(1, 0, MakeBuffer(512, 2), 0);
  auto stats = fabric.Stats();
  EXPECT_EQ(stats[0].evictions, 1u);
  EXPECT_EQ(stats[0].evicted_by_other, 1u);
  EXPECT_EQ(stats[1].resident_chunks, 1u);
  EXPECT_LE(fabric.resident_bytes(), fopts.capacity_bytes);
}

TEST_F(FabricTest, DepartedResidueIsThePreferredVictim) {
  FabricOptions fopts;
  fopts.capacity_bytes = 4 * 512;
  CacheFabric fabric(net_, fopts);
  TenantBinding* gone = fabric.RegisterTenant("ds", {.name = "gone"});
  TenantBinding* live = fabric.RegisterTenant("ds2", {.name = "live"});
  for (size_t ci = 0; ci < 2; ++ci) {
    gone->Demote(0, ci, MakeBuffer(512, 3), 0);
    live->Publish(1, ci, MakeBuffer(512, 4), 0);
  }
  fabric.DeregisterTenant(gone);
  // Equal byte footprints, but the departed tenant's effective weight is
  // quartered — its residue goes first.
  live->Publish(1, 7, MakeBuffer(512, 5), 0);
  auto stats = fabric.Stats();
  EXPECT_FALSE(stats[0].active);
  EXPECT_EQ(stats[0].evictions, 1u);
  EXPECT_EQ(stats[1].evictions, 0u);
  EXPECT_EQ(stats[1].resident_chunks, 3u);
}

TEST_F(FabricTest, DepartedResidueStaysAdoptable) {
  CacheFabric fabric(net_, {});
  TenantBinding* gone = fabric.RegisterTenant("ds", {.name = "gone"});
  gone->Demote(0, 0, MakeBuffer(256, 6), 0);
  fabric.DeregisterTenant(gone);
  TenantBinding* next = fabric.RegisterTenant("ds", {.name = "next"});
  sim::VirtualClock clock;
  EXPECT_TRUE(next->Adopt(clock, 1, 0).ok());
}

TEST_F(FabricTest, VerifiedMemoUnionsOnlyOnIdenticalBytes) {
  CacheFabric fabric(net_, {});
  TenantBinding* a = fabric.RegisterTenant("ds", {.name = "a"});
  TenantBinding* b = fabric.RegisterTenant("ds", {.name = "b"});
  // A corrupt blob published before any CRC scan (preload/prefetch fills
  // publish with an empty memo).
  core::ChunkBuffer corrupt = MakeChunk(2, 0xbd);
  a->Publish(0, 7, corrupt, 0);
  // An adopter detects the corruption, refetches clean bytes and publishes
  // them verified. The memo vouches for the NEW bytes only: the fabric must
  // not keep the corrupt blob and mark it verified.
  core::ChunkBuffer clean = MakeChunk(2, 0x5a);
  clean.MarkVerified(0);
  b->Publish(1, 7, clean, 0);
  sim::VirtualClock clock;
  auto adopted = a->Adopt(clock, 2, 7);
  ASSERT_TRUE(adopted.ok());
  EXPECT_EQ(adopted->shared_blob().get(), clean.shared_blob().get());
  EXPECT_TRUE(adopted->Verified(0));
  EXPECT_FALSE(adopted->Verified(1));
  EXPECT_FALSE(corrupt.AnyVerified());
  // Same blob re-offered under a separate memo (a second fetch of the same
  // stored bytes): the memo unions in place (no replacement).
  core::ChunkBuffer refetch = core::ChunkBuffer::Wrap(clean.shared_blob());
  refetch.MarkVerified(1);
  a->Publish(0, 7, refetch, 0);
  adopted = a->Adopt(clock, 2, 7);
  ASSERT_TRUE(adopted.ok());
  EXPECT_EQ(adopted->shared_blob().get(), clean.shared_blob().get());
  EXPECT_TRUE(adopted->Verified(0));
  EXPECT_TRUE(adopted->Verified(1));
  EXPECT_EQ(fabric.resident_chunks(), 1u);
  EXPECT_EQ(fabric.resident_bytes(), clean.size());
}

TEST_F(FabricTest, UnverifiedDistinctOfferKeepsTheVerifiedResident) {
  CacheFabric fabric(net_, {});
  TenantBinding* a = fabric.RegisterTenant("ds", {.name = "a"});
  core::ChunkBuffer verified_blob = MakeChunk(1, 0x01);
  verified_blob.MarkVerified(0);
  a->Publish(0, 3, verified_blob, 0);
  // A second task's independent (possibly corrupt) backend load of the same
  // chunk carries no verification — it must not displace the verified copy.
  a->Publish(1, 3, MakeChunk(1, 0x02), 0);
  sim::VirtualClock clock;
  auto adopted = a->Adopt(clock, 2, 3);
  ASSERT_TRUE(adopted.ok());
  EXPECT_EQ(adopted->shared_blob().get(), verified_blob.shared_blob().get());
  EXPECT_TRUE(adopted->Verified(0));
}

TEST_F(FabricTest, InvalidateDropsOnlyTheMatchingBytes) {
  CacheFabric fabric(net_, {});
  TenantBinding* a = fabric.RegisterTenant("ds", {.name = "a"});
  core::ChunkBuffer corrupt = MakeChunk(1, 0xbd);
  a->Publish(0, 0, corrupt, 0);
  // Mismatched bytes (entry already replaced elsewhere): no-op.
  a->Invalidate(0, MakeChunk(1, 0x00));
  EXPECT_EQ(fabric.resident_chunks(), 1u);
  // Matching bytes: the corrupt entry and its accounting are gone. Identity
  // is the blob's, not the memo's: a separate wrap of the same bytes
  // matches.
  a->Invalidate(0, core::ChunkBuffer::Wrap(corrupt.shared_blob()));
  EXPECT_EQ(fabric.resident_chunks(), 0u);
  EXPECT_EQ(fabric.resident_bytes(), 0u);
  sim::VirtualClock clock;
  EXPECT_FALSE(a->Adopt(clock, 1, 0).ok());
  auto stats = fabric.Stats();
  EXPECT_EQ(stats[0].resident_bytes, 0u);
  EXPECT_EQ(stats[0].resident_chunks, 0u);
  // Re-publishing clean bytes after invalidation works (the stale FIFO key
  // is skipped lazily by the victim scan).
  core::ChunkBuffer clean = MakeChunk(1, 0x5a);
  clean.MarkVerified(0);
  a->Publish(0, 0, clean, 0);
  auto adopted = a->Adopt(clock, 1, 0);
  ASSERT_TRUE(adopted.ok());
  EXPECT_EQ(adopted->shared_blob().get(), clean.shared_blob().get());
}

TEST_F(FabricTest, RegisteringAnActiveNameIsRejected) {
  CacheFabric fabric(net_, {});
  TenantBinding* a = fabric.RegisterTenant("ds", {.name = "a"});
  ASSERT_NE(a, nullptr);
  // The name is live: a second registration must not alias the binding.
  EXPECT_EQ(fabric.RegisterTenant("ds2", {.name = "a"}), nullptr);
  EXPECT_EQ(a->dataset(), "ds");
  EXPECT_EQ(fabric.Stats().size(), 1u);
  // After deregistration the name revives (and may rebind the dataset).
  fabric.DeregisterTenant(a);
  EXPECT_EQ(fabric.RegisterTenant("ds3", {.name = "a"}), a);
  EXPECT_EQ(a->dataset(), "ds3");
}

TEST_F(FabricTest, ReRegisteringRevivesTheDepartedTenant) {
  CacheFabric fabric(net_, {});
  TenantBinding* a = fabric.RegisterTenant("ds", {.name = "a"});
  a->Publish(0, 0, MakeBuffer(256, 7), 0);
  fabric.DeregisterTenant(a);
  TenantBinding* again = fabric.RegisterTenant("ds", {.name = "a"});
  EXPECT_EQ(again, a);  // same binding, same accounting row
  auto stats = fabric.Stats();
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_TRUE(stats[0].active);
  EXPECT_EQ(stats[0].resident_chunks, 1u);
}

// Every Stats() row equals its tenant's labeled registry series after
// publish, adopt, capacity eviction and invalidation by two tenants. The
// registry is process-wide, so the names are this test's own and the
// counters are compared as deltas.
TEST_F(FabricTest, StatsRowsMatchTheRegistrySeries) {
  const std::vector<std::string> names{"stats-mirror-a", "stats-mirror-b"};
  struct Series {
    const obs::Gauge& resident_bytes;
    const obs::Gauge& resident_chunks;
    const obs::Counter& adopted_chunks;
    const obs::Counter& shared_hits;
    const obs::Counter& evictions;
    const obs::Counter& evicted_by_other;
    uint64_t adopted0, hits0, evictions0, by_other0;
  };
  std::vector<Series> series;
  for (const std::string& name : names) {
    const obs::Labels labels{{"tenant", name}};
    obs::MetricsRegistry& m = obs::Metrics();
    Series s{m.GetGauge("tenant.resident_bytes", labels),
             m.GetGauge("tenant.resident_chunks", labels),
             m.GetCounter("tenant.fabric.adopted_chunks", labels),
             m.GetCounter("tenant.shared_hits", labels),
             m.GetCounter("tenant.evictions", labels),
             m.GetCounter("tenant.evicted_by_other", labels),
             0, 0, 0, 0};
    s.adopted0 = s.adopted_chunks.value();
    s.hits0 = s.shared_hits.value();
    s.evictions0 = s.evictions.value();
    s.by_other0 = s.evicted_by_other.value();
    series.push_back(s);
  }

  FabricOptions fopts;
  fopts.capacity_bytes = 4 * 512;
  CacheFabric fabric(net_, fopts);
  TenantBinding* a = fabric.RegisterTenant("ds", {.name = names[0]});
  TenantBinding* b = fabric.RegisterTenant("ds", {.name = names[1]});
  std::vector<core::ChunkBuffer> bufs;
  for (uint8_t ci = 0; ci < 6; ++ci) bufs.push_back(MakeBuffer(512, ci));
  for (size_t ci = 0; ci < 4; ++ci) a->Publish(0, ci, bufs[ci], 0);
  sim::VirtualClock clock;
  ASSERT_TRUE(b->Adopt(clock, 1, 1).ok());
  ASSERT_TRUE(b->Adopt(clock, 1, 2).ok());
  // Full: b's offers evict a's oldest chunks (0, then 1).
  b->Publish(1, 4, bufs[4], 0);
  b->Demote(1, 5, bufs[5], 0);
  ASSERT_TRUE(a->Adopt(clock, 2, 4).ok());
  a->Invalidate(2, bufs[2]);
  b->Invalidate(5, bufs[5]);

  const std::vector<TenantStats> rows = fabric.Stats();
  ASSERT_EQ(rows.size(), names.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    const TenantStats& row = rows[i];
    const Series& s = series[i];
    EXPECT_EQ(row.name, names[i]);
    EXPECT_EQ(s.resident_bytes.value(),
              static_cast<double>(row.resident_bytes)) << row.name;
    EXPECT_EQ(s.resident_chunks.value(),
              static_cast<double>(row.resident_chunks)) << row.name;
    EXPECT_EQ(s.adopted_chunks.value() - s.adopted0, row.adopted_chunks)
        << row.name;
    EXPECT_EQ(s.shared_hits.value() - s.hits0, row.shared_hits) << row.name;
    EXPECT_EQ(s.evictions.value() - s.evictions0, row.evictions) << row.name;
    EXPECT_EQ(s.evicted_by_other.value() - s.by_other0, row.evicted_by_other)
        << row.name;
  }
  // The script reached every counter it mirrors.
  EXPECT_EQ(rows[0].resident_chunks, 1u);  // chunk 3
  EXPECT_EQ(rows[0].evicted_by_other, 2u);
  EXPECT_EQ(rows[0].shared_hits, 2u);
  EXPECT_EQ(rows[0].adopted_chunks, 1u);
  EXPECT_EQ(rows[1].resident_chunks, 1u);  // chunk 4
  EXPECT_EQ(rows[1].adopted_chunks, 2u);
  EXPECT_EQ(rows[1].shared_hits, 1u);
  EXPECT_EQ(rows[1].demoted_chunks, 1u);
}

}  // namespace
}  // namespace diesel::tenant
