// CacheFabric unit tests: directory dedup, demote/adopt accounting,
// per-tenant budgets, weighted fair eviction, departed-residue priority and
// the prefetch budget governor — all against the raw fabric, no deployment.
#include <gtest/gtest.h>

#include "net/fabric.h"
#include "sim/node.h"
#include "tenant/fabric.h"

namespace diesel::tenant {
namespace {

core::ChunkBuffer MakeBuffer(size_t bytes, uint8_t fill) {
  return core::ChunkBuffer::Wrap(ShareBytes(Bytes(bytes, fill)));
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

  core::ChunkBuffer buf = MakeBuffer(1024, 0x5a);
  a->Publish(0, 7, buf, {true, false}, 0);
  EXPECT_EQ(fabric.resident_chunks(), 1u);
  EXPECT_EQ(fabric.resident_bytes(), 1024u);

  sim::VirtualClock clock;
  auto adopted = b->Adopt(clock, 1, 7);
  ASSERT_TRUE(adopted.ok());
  // Refcount share, not a copy: same underlying blob.
  EXPECT_EQ(adopted.value().buffer.shared_blob().get(),
            buf.shared_blob().get());
  // CRC memo travels with the chunk.
  ASSERT_EQ(adopted.value().verified.size(), 2u);
  EXPECT_TRUE(adopted.value().verified[0]);
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
  a->Publish(0, 0, MakeBuffer(128, 1), {}, 0);
  sim::VirtualClock clock;
  EXPECT_FALSE(b->Adopt(clock, 1, 0).ok());
}

TEST_F(FabricTest, DemoteRetainsResidencyAndDedups) {
  CacheFabric fabric(net_, {});
  TenantBinding* a = fabric.RegisterTenant("ds", {.name = "a"});
  core::ChunkBuffer buf = MakeBuffer(512, 0x11);
  EXPECT_EQ(a->Demote(0, 1, buf, {}, 0), 512u);
  // Demoting (or publishing) an already-shared chunk retains it — no double
  // charge, still one entry.
  EXPECT_EQ(a->Demote(0, 1, buf, {}, 0), 512u);
  EXPECT_EQ(fabric.resident_chunks(), 1u);
  EXPECT_EQ(fabric.resident_bytes(), 512u);
  EXPECT_EQ(fabric.Stats()[0].demoted_chunks, 2u);
}

TEST_F(FabricTest, PerTenantBudgetEvictsOwnOldestFirst) {
  CacheFabric fabric(net_, {});
  TenantBinding* a =
      fabric.RegisterTenant("ds", {.name = "a", .budget_bytes = 1024});
  for (size_t ci = 0; ci < 4; ++ci) {
    a->Publish(0, ci, MakeBuffer(512, static_cast<uint8_t>(ci)), {}, 0);
  }
  // Budget holds 2 x 512; the oldest two were self-evicted.
  EXPECT_EQ(fabric.resident_chunks(), 2u);
  auto stats = fabric.Stats();
  EXPECT_EQ(stats[0].evictions, 2u);
  EXPECT_EQ(stats[0].evicted_by_other, 0u);
  sim::VirtualClock clock;
  EXPECT_FALSE(a->Adopt(clock, 0, 0).ok());  // oldest gone
  EXPECT_TRUE(a->Adopt(clock, 0, 3).ok());   // newest retained
  // A chunk bigger than the whole budget is declined outright.
  EXPECT_EQ(a->Demote(0, 9, MakeBuffer(4096, 0xff), {}, 0), 0u);
}

TEST_F(FabricTest, CapacityEvictsFromHeaviestTenantPerWeight) {
  FabricOptions fopts;
  fopts.capacity_bytes = 4 * 512;
  CacheFabric fabric(net_, fopts);
  TenantBinding* big = fabric.RegisterTenant("ds", {.name = "big"});
  TenantBinding* small = fabric.RegisterTenant("ds2", {.name = "small"});
  for (size_t ci = 0; ci < 4; ++ci) {
    big->Publish(0, ci, MakeBuffer(512, 1), {}, 0);
  }
  // The fabric is full of big's bytes; small's publish must evict from big
  // (highest bytes/weight), and big's loss is attributed to small.
  small->Publish(1, 0, MakeBuffer(512, 2), {}, 0);
  auto stats = fabric.Stats();
  EXPECT_EQ(stats[0].evictions, 1u);
  EXPECT_EQ(stats[0].evicted_by_other, 1u);
  EXPECT_EQ(stats[1].resident_chunks, 1u);
  EXPECT_LE(fabric.resident_bytes(), fopts.capacity_bytes);
}

TEST_F(FabricTest, DepartedResidueIsThePreferredVictim) {
  FabricOptions fopts;
  fopts.capacity_bytes = 4 * 512;
  fopts.departed_weight = 0.25;
  CacheFabric fabric(net_, fopts);
  TenantBinding* gone = fabric.RegisterTenant("ds", {.name = "gone"});
  TenantBinding* live = fabric.RegisterTenant("ds2", {.name = "live"});
  for (size_t ci = 0; ci < 2; ++ci) {
    gone->Demote(0, ci, MakeBuffer(512, 3), {}, 0);
    live->Publish(1, ci, MakeBuffer(512, 4), {}, 0);
  }
  fabric.DeregisterTenant(gone);
  // Equal byte footprints, but the departed tenant's effective weight is
  // quartered — its residue goes first.
  live->Publish(1, 7, MakeBuffer(512, 5), {}, 0);
  auto stats = fabric.Stats();
  EXPECT_FALSE(stats[0].active);
  EXPECT_EQ(stats[0].evictions, 1u);
  EXPECT_EQ(stats[1].evictions, 0u);
  EXPECT_EQ(stats[1].resident_chunks, 3u);
}

TEST_F(FabricTest, DepartedResidueStaysAdoptable) {
  CacheFabric fabric(net_, {});
  TenantBinding* gone = fabric.RegisterTenant("ds", {.name = "gone"});
  gone->Demote(0, 0, MakeBuffer(256, 6), {}, 0);
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
  core::ChunkBuffer corrupt = MakeBuffer(1024, 0xbd);
  a->Publish(0, 7, corrupt, {}, 0);
  // An adopter detects the corruption, refetches clean bytes and publishes
  // them verified. The memo vouches for the NEW bytes only: the fabric must
  // not keep the corrupt blob and mark it verified.
  core::ChunkBuffer clean = MakeBuffer(1024, 0x5a);
  b->Publish(1, 7, clean, {true}, 0);
  sim::VirtualClock clock;
  auto adopted = a->Adopt(clock, 2, 7);
  ASSERT_TRUE(adopted.ok());
  EXPECT_EQ(adopted.value().buffer.shared_blob().get(),
            clean.shared_blob().get());
  ASSERT_EQ(adopted.value().verified.size(), 1u);
  EXPECT_TRUE(adopted.value().verified[0]);
  // Same blob re-offered: the memo unions in place (no replacement).
  a->Publish(0, 7, clean, {true, true}, 0);
  adopted = a->Adopt(clock, 2, 7);
  ASSERT_TRUE(adopted.ok());
  ASSERT_EQ(adopted.value().verified.size(), 2u);
  EXPECT_TRUE(adopted.value().verified[1]);
  EXPECT_EQ(fabric.resident_chunks(), 1u);
  EXPECT_EQ(fabric.resident_bytes(), 1024u);
}

TEST_F(FabricTest, UnverifiedDistinctOfferKeepsTheVerifiedResident) {
  CacheFabric fabric(net_, {});
  TenantBinding* a = fabric.RegisterTenant("ds", {.name = "a"});
  core::ChunkBuffer verified_blob = MakeBuffer(512, 0x01);
  a->Publish(0, 3, verified_blob, {true}, 0);
  // A second task's independent (possibly corrupt) backend load of the same
  // chunk carries no verification — it must not displace the verified copy.
  a->Publish(1, 3, MakeBuffer(512, 0x02), {}, 0);
  sim::VirtualClock clock;
  auto adopted = a->Adopt(clock, 2, 3);
  ASSERT_TRUE(adopted.ok());
  EXPECT_EQ(adopted.value().buffer.shared_blob().get(),
            verified_blob.shared_blob().get());
  ASSERT_EQ(adopted.value().verified.size(), 1u);
  EXPECT_TRUE(adopted.value().verified[0]);
}

TEST_F(FabricTest, InvalidateDropsOnlyTheMatchingBytes) {
  CacheFabric fabric(net_, {});
  TenantBinding* a = fabric.RegisterTenant("ds", {.name = "a"});
  core::ChunkBuffer corrupt = MakeBuffer(256, 0xbd);
  a->Publish(0, 0, corrupt, {}, 0);
  // Mismatched bytes (entry already replaced elsewhere): no-op.
  a->Invalidate(0, MakeBuffer(256, 0x00));
  EXPECT_EQ(fabric.resident_chunks(), 1u);
  // Matching bytes: the corrupt entry and its accounting are gone.
  a->Invalidate(0, corrupt);
  EXPECT_EQ(fabric.resident_chunks(), 0u);
  EXPECT_EQ(fabric.resident_bytes(), 0u);
  sim::VirtualClock clock;
  EXPECT_FALSE(a->Adopt(clock, 1, 0).ok());
  auto stats = fabric.Stats();
  EXPECT_EQ(stats[0].resident_bytes, 0u);
  EXPECT_EQ(stats[0].resident_chunks, 0u);
  // Re-publishing clean bytes after invalidation works (the stale FIFO key
  // is skipped lazily by the victim scan).
  core::ChunkBuffer clean = MakeBuffer(256, 0x5a);
  a->Publish(0, 0, clean, {true}, 0);
  auto adopted = a->Adopt(clock, 1, 0);
  ASSERT_TRUE(adopted.ok());
  EXPECT_EQ(adopted.value().buffer.shared_blob().get(),
            clean.shared_blob().get());
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
  a->Publish(0, 0, MakeBuffer(256, 7), {}, 0);
  fabric.DeregisterTenant(a);
  TenantBinding* again = fabric.RegisterTenant("ds", {.name = "a"});
  EXPECT_EQ(again, a);  // same binding, same accounting row
  auto stats = fabric.Stats();
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_TRUE(stats[0].active);
  EXPECT_EQ(stats[0].resident_chunks, 1u);
}

TEST_F(FabricTest, PrefetchBudgetIsAWeightedShareOfThePool) {
  FabricOptions fopts;
  fopts.prefetch_pool_bytes_per_node = 4000;
  CacheFabric fabric(net_, fopts);
  TenantBinding* light =
      fabric.RegisterTenant("ds", {.name = "light", .weight = 1.0});
  TenantBinding* heavy =
      fabric.RegisterTenant("ds2", {.name = "heavy", .weight = 3.0});
  EXPECT_EQ(light->PrefetchBudgetBytes(0), 1000u);
  EXPECT_EQ(heavy->PrefetchBudgetBytes(0), 3000u);
  // A configured base still caps the share.
  EXPECT_EQ(heavy->PrefetchBudgetBytes(500), 500u);
  // Departed tenants drop out of the split.
  fabric.DeregisterTenant(heavy);
  EXPECT_EQ(light->PrefetchBudgetBytes(0), 4000u);
}

TEST_F(FabricTest, NoPoolLeavesSchedulerBudgetsUntouched) {
  CacheFabric fabric(net_, {});
  TenantBinding* a = fabric.RegisterTenant("ds", {.name = "a"});
  EXPECT_EQ(a->PrefetchBudgetBytes(0), 0u);
  EXPECT_EQ(a->PrefetchBudgetBytes(12345), 12345u);
}

}  // namespace
}  // namespace diesel::tenant
