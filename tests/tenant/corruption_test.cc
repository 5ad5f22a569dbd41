// Corruption lifecycle across the shared tier (REVIEW regression): a chunk
// published to the fabric BEFORE any CRC scan (preload/prefetch paths) may
// be corrupt. The detecting reader must invalidate the shared entry, and a
// later verified re-publish of refetched clean bytes must replace — never
// vouch for — a corrupt resident blob. Contract: no tenant ever reads wrong
// bytes, and once one tenant has paid the refetch, the rest adopt the clean
// verified copy instead of re-detecting the corruption forever.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "cache/task_cache.h"
#include "common/crc32.h"
#include "core/deployment.h"
#include "dlt/dataset_gen.h"
#include "net/fault_injector.h"
#include "obs/metrics.h"
#include "tenant/fabric.h"

namespace diesel::tenant {
namespace {

dlt::DatasetSpec MakeSpec() {
  dlt::DatasetSpec spec;
  spec.name = "tcorrupt";
  spec.num_classes = 2;
  spec.files_per_class = 12;
  spec.mean_file_bytes = 2048;
  return spec;
}

struct Job {
  std::unique_ptr<core::DieselClient> client;
  cache::TaskRegistry registry;
  std::unique_ptr<cache::TaskCache> cache;
  TenantBinding* binding = nullptr;
  sim::VirtualClock clock;
};

TEST(TenantCorruptionTest, CorruptPublishIsInvalidatedNeverMarkedVerified) {
  dlt::DatasetSpec spec = MakeSpec();
  core::DeploymentOptions dopts;
  dopts.num_client_nodes = 3;
  core::Deployment dep(dopts);
  auto writer = dep.MakeClient(0, 0, spec.name, 16 * 1024);
  ASSERT_TRUE(dlt::ForEachFile(spec, [&](const dlt::GeneratedFile& f) {
                return writer->Put(f.path, f.content);
              }).ok());
  ASSERT_TRUE(writer->Flush().ok());
  dep.ResetDevices();

  // Chunk 0's next fetch returns flipped payload bytes (one-shot): job A's
  // preload publishes that corrupt blob to the fabric with an empty memo.
  net::FaultPlan plan;
  plan.corrupt_chunk_fetches.push_back(0);
  net::FaultInjector inj(plan);
  dep.fabric().set_fault_injector(&inj);

  CacheFabric shared(dep.fabric(), {});
  std::vector<std::unique_ptr<Job>> jobs;
  for (size_t j = 0; j < 3; ++j) {
    auto job = std::make_unique<Job>();
    job->client = dep.MakeClient(j, 1, spec.name);
    job->registry.Register(job->client->endpoint());
    ASSERT_TRUE(job->client->FetchSnapshot().ok());
    job->binding =
        shared.RegisterTenant(spec.name, {.name = "j" + std::to_string(j)});
    ASSERT_NE(job->binding, nullptr);
    job->cache = std::make_unique<cache::TaskCache>(
        dep.fabric(), dep.server(0), *job->client->snapshot(), job->registry,
        cache::TaskCacheOptions{});
    job->cache->AttachSharedTier(job->binding);
    jobs.push_back(std::move(job));
  }
  Job& a = *jobs[0];
  Job& b = *jobs[1];
  Job& c = *jobs[2];

  ASSERT_TRUE(a.cache->Preload(0).ok());
  ASSERT_GT(shared.resident_chunks(), 0u);

  // Every file of chunk 0, read per file by B, then A (the publisher of the
  // corruption, whose local copy is corrupt), then C. The flipped byte sits
  // in ONE file's range, so early files pass their CRC everywhere and both
  // B and C adopt the corrupt blob before anyone can detect it — the
  // detection fires mid-chunk, exercising invalidate + verified re-publish
  // while stale corrupt copies are still resident in other tasks.
  const core::ChunkId chunk0 = a.client->snapshot()->chunks().at(0);
  size_t chunk0_files = 0;
  for (size_t i = 0; i < spec.total_files(); ++i) {
    const core::FileMeta* fm =
        a.client->snapshot()->Lookup(dlt::FilePath(spec, i));
    ASSERT_NE(fm, nullptr);
    if (!(fm->chunk == chunk0)) continue;
    ++chunk0_files;
    for (Job* job : {&b, &a, &c}) {
      auto r = job->cache->GetFile(job->clock, job->client->endpoint(), *fm);
      ASSERT_TRUE(r.ok()) << "file " << i;
      EXPECT_TRUE(dlt::VerifyContent(spec, i, r->view()))
          << "tenant served corrupt bytes for file " << i;
    }
  }
  ASSERT_GT(chunk0_files, 0u);

  // B detected the corruption EXACTLY once: invalidation removed the shared
  // entry, so the post-eviction adopt misses instead of handing the same
  // corrupt blob back for a second detection. One refetch repairs the chunk
  // for the whole cluster.
  EXPECT_EQ(b.cache->stats().corruptions_detected, 1u);
  EXPECT_EQ(b.cache->stats().chunk_loads, 1u);
  // A's resident copy was corrupt too; it detected once, and its stale-blob
  // invalidation must NOT have hit B's clean replacement — it healed via
  // adoption, no backend round-trip.
  EXPECT_EQ(a.cache->stats().corruptions_detected, 1u);
  EXPECT_GE(a.cache->stats().adopted_chunks, 1u);
  // C adopted before detection, so it may detect the bad byte once itself —
  // but never more than once, and it repairs purely by adopting the clean
  // verified copy (zero backend loads). If the verified re-publish had been
  // unioned onto the corrupt blob, C would instead have SERVED corrupt
  // bytes with the CRC skipped (caught by VerifyContent above).
  EXPECT_LE(c.cache->stats().corruptions_detected, 1u);
  EXPECT_EQ(c.cache->stats().chunk_loads, 0u);
  EXPECT_GE(c.cache->stats().adopted_chunks, 1u);

  dep.fabric().set_fault_injector(nullptr);
}

// Injected payload corruption is copy-on-write: the fetch that is corrupted
// gets a private copy with the flipped byte, while the object store's blob —
// shared by reference with every other fetch — stays clean, so the refetch
// after detection hands back the store's own buffer.
TEST(TenantCorruptionTest, InjectedCorruptionCopiesAndLeavesStoreClean) {
  dlt::DatasetSpec spec = MakeSpec();
  core::DeploymentOptions dopts;
  dopts.num_client_nodes = 1;
  core::Deployment dep(dopts);
  auto writer = dep.MakeClient(0, 0, spec.name, 16 * 1024);
  ASSERT_TRUE(dlt::ForEachFile(spec, [&](const dlt::GeneratedFile& f) {
                return writer->Put(f.path, f.content);
              }).ok());
  ASSERT_TRUE(writer->Flush().ok());
  auto reader = dep.MakeClient(0, 1, spec.name);
  cache::TaskRegistry registry;
  registry.Register(reader->endpoint());
  ASSERT_TRUE(reader->FetchSnapshot().ok());
  const core::MetadataSnapshot& snap = *reader->snapshot();

  sim::VirtualClock clock;
  const std::string key = core::ChunkObjectKey(spec.name, snap.chunks().at(0));
  const SharedBytes stored = dep.store().Get(clock, 0, key).value();
  const uint32_t stored_crc = Crc32c(*stored);

  // Find the file the flipped byte lands in by corrupting a private copy
  // the way the injector will, and one clean file of the same chunk.
  net::FaultPlan plan;
  plan.corrupt_chunk_fetches.push_back(0);
  net::FaultInjector inj(plan);
  const uint32_t header_len = core::ChunkView::Parse(*stored)->header_len();
  Bytes probe = *stored;
  inj.CorruptPayload(probe, header_len, 0);
  // File records address the blob, header included, as this index does.
  const uint64_t flipped =
      std::mismatch(probe.begin(), probe.end(), stored->begin()).first -
      probe.begin();
  size_t bad = SIZE_MAX, good = SIZE_MAX;
  for (size_t i = 0; i < spec.total_files(); ++i) {
    const core::FileMeta* fm = snap.Lookup(dlt::FilePath(spec, i));
    ASSERT_NE(fm, nullptr);
    if (!(fm->chunk == snap.chunks().at(0))) continue;
    bool hit = flipped >= fm->offset && flipped < fm->offset + fm->length;
    (hit ? bad : good) = i;
  }
  ASSERT_NE(bad, SIZE_MAX);
  ASSERT_NE(good, SIZE_MAX);

  dep.fabric().set_fault_injector(&inj);
  const obs::Gauge& cached_gauge = obs::Metrics().GetGauge("cache.bytes_cached");
  const double gauge0 = cached_gauge.value();
  cache::TaskCache tc(dep.fabric(), dep.server(0), snap, registry, {});
  const net::EndpointId ep = reader->endpoint();
  // The miss fetches the corrupted copy; the clean file passes its CRC and
  // the copy becomes resident.
  auto meta = [&](size_t i) { return *snap.Lookup(dlt::FilePath(spec, i)); };
  auto first = tc.GetFile(clock, ep, meta(good));
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(inj.stats().corruptions_injected, 1u);
  EXPECT_NE(first->shared_owner(), stored);
  EXPECT_TRUE(dlt::VerifyContent(spec, good, first->view()));
  EXPECT_EQ(Crc32c(*stored), stored_crc);
  // The flipped file fails its CRC: evict, refetch, and the refetch is the
  // store's own clean buffer.
  auto second = tc.GetFile(clock, ep, meta(bad));
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(tc.stats().corruptions_detected, 1u);
  // Only the clean refetch is resident: dropping the corrupt copy released
  // its bytes from the stat and the gauge.
  EXPECT_EQ(tc.stats().bytes_cached, stored->size());
  EXPECT_EQ(cached_gauge.value() - gauge0, static_cast<double>(stored->size()));
  EXPECT_EQ(second->shared_owner(), stored);
  EXPECT_TRUE(dlt::VerifyContent(spec, bad, second->view()));
  EXPECT_EQ(Crc32c(*stored), stored_crc);
  EXPECT_EQ(dep.store().Get(clock, 0, key).value(), stored);
  dep.fabric().set_fault_injector(nullptr);
}

}  // namespace
}  // namespace diesel::tenant
