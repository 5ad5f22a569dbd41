// One CRC memo per chunk blob: the memo lives in the ChunkBuffer's shared
// state, so every task holding a blob — its loader, each adopter — sees the
// same per-file bits. A check one tenant pays is skipped by all the others,
// a bit set for clean bytes never vouches for a corrupted copy (a new blob
// with its own, empty memo), and tenants racing on one blob's memo stay
// exact.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cache/task_cache.h"
#include "core/chunk_format.h"
#include "core/deployment.h"
#include "dlt/dataset_gen.h"
#include "net/fault_injector.h"
#include "obs/metrics.h"
#include "tenant/fabric.h"

namespace diesel::tenant {
namespace {

class SharedMemoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    core::DeploymentOptions dopts;
    dopts.num_client_nodes = 2;
    deployment_ = std::make_unique<core::Deployment>(dopts);
    spec_.name = "memo";
    spec_.num_classes = 2;
    spec_.files_per_class = 24;
    spec_.mean_file_bytes = 2048;
    auto writer = deployment_->MakeClient(0, 0, spec_.name, 16 * 1024);
    ASSERT_TRUE(dlt::ForEachFile(spec_, [&](const dlt::GeneratedFile& f) {
                  return writer->Put(f.path, f.content);
                }).ok());
    ASSERT_TRUE(writer->Flush().ok());
  }

  /// One task: a client on `node` as its only I/O worker (so it owns every
  /// chunk itself), its own cache, attached to `fabric` when given.
  struct Task {
    std::unique_ptr<core::DieselClient> client;
    cache::TaskRegistry registry;
    std::unique_ptr<cache::TaskCache> cache;
  };

  std::unique_ptr<Task> MakeTask(CacheFabric* fabric, size_t node,
                                 const std::string& name) {
    auto t = std::make_unique<Task>();
    t->client = deployment_->MakeClient(node, 1, spec_.name);
    t->registry.Register(t->client->endpoint());
    EXPECT_TRUE(t->client->FetchSnapshot().ok());
    t->cache = std::make_unique<cache::TaskCache>(
        deployment_->fabric(), deployment_->server(0), *t->client->snapshot(),
        t->registry, cache::TaskCacheOptions{});
    if (fabric != nullptr) {
      t->cache->AttachSharedTier(
          fabric->RegisterTenant(spec_.name, {.name = name}));
    }
    return t;
  }

  /// Dataset indices of the files stored in chunk `ci`.
  std::vector<size_t> FilesOfChunk(const Task& t, size_t ci) const {
    const core::MetadataSnapshot& snap = *t.client->snapshot();
    std::vector<size_t> out;
    for (size_t i = 0; i < spec_.total_files(); ++i) {
      const core::FileMeta* m = snap.Lookup(dlt::FilePath(spec_, i));
      if (m != nullptr && m->chunk == snap.chunks().at(ci)) out.push_back(i);
    }
    return out;
  }

  Result<core::FileSlice> Read(Task& t, sim::VirtualClock& clock,
                               size_t index) {
    const core::FileMeta* m =
        t.client->snapshot()->Lookup(dlt::FilePath(spec_, index));
    if (m == nullptr) return Status::NotFound("no such file");
    return t.cache->GetFile(clock, t.client->endpoint(), *m);
  }

  static uint64_t Verified() {
    return obs::Metrics().GetCounter("cache.slice.crc_verified").value();
  }
  static uint64_t Skipped() {
    return obs::Metrics().GetCounter("cache.slice.crc_skipped").value();
  }

  std::unique_ptr<core::Deployment> deployment_;
  dlt::DatasetSpec spec_;
};

// Tenant B adopts chunk 0 before anyone has read from it. A check tenant A
// pays afterwards is visible to B: B's read of the same file skips its CRC.
TEST_F(SharedMemoTest, AdopterSeesChecksMadeAfterItAdopted) {
  CacheFabric fabric(deployment_->fabric(), {});
  auto a = MakeTask(&fabric, 0, "a");
  auto b = MakeTask(&fabric, 1, "b");
  ASSERT_TRUE(a->cache->Preload(0).ok());
  sim::VirtualClock stream;
  auto adopted = b->cache->PrefetchChunk(stream, 0);
  ASSERT_TRUE(adopted.ok()) << adopted.status().ToString();
  ASSERT_TRUE(adopted->inserted);
  ASSERT_EQ(b->cache->stats().adopted_chunks, 1u);

  const size_t f = FilesOfChunk(*a, 0).at(0);
  sim::VirtualClock ca, cb;
  const uint64_t v0 = Verified();
  auto first = Read(*a, ca, f);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(Verified() - v0, 1u);

  const uint64_t v1 = Verified();
  const uint64_t s1 = Skipped();
  auto second = Read(*b, cb, f);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(Verified() - v1, 0u);
  EXPECT_EQ(Skipped() - s1, 1u);
  EXPECT_EQ(second->shared_owner(), first->shared_owner());
  EXPECT_TRUE(dlt::VerifyContent(spec_, f, second->view()));
  EXPECT_EQ(b->cache->stats().chunk_loads, 0u);
}

// Every file of the clean stored blob is checked (its memo is full) before a
// one-shot corruption of the same chunk is injected. The corrupted fetch is
// a private copy with its own, empty memo, so the flipped file still fails
// its CRC, and the refetch serves the clean bytes.
TEST_F(SharedMemoTest, CleanBitsNeverVouchForACorruptCopy) {
  CacheFabric fabric(deployment_->fabric(), {});
  auto a = MakeTask(&fabric, 0, "a");
  const std::vector<size_t> files = FilesOfChunk(*a, 0);
  ASSERT_GT(files.size(), 1u);
  sim::VirtualClock ca;
  SharedBytes stored;
  for (size_t f : files) {
    auto r = Read(*a, ca, f);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    stored = r->shared_owner();
  }
  auto clean = fabric.RegisterTenant(spec_.name, {.name = "probe"})
                   ->Adopt(ca, 0, 0);
  ASSERT_TRUE(clean.ok());
  ASSERT_EQ(clean->shared_blob(), stored);
  for (size_t f : files) {
    const core::FileMeta* m =
        a->client->snapshot()->Lookup(dlt::FilePath(spec_, f));
    EXPECT_TRUE(clean->Verified(m->index_in_chunk)) << f;
  }

  // Which file the injector's flipped byte lands in.
  net::FaultPlan plan;
  plan.corrupt_chunk_fetches.push_back(0);
  net::FaultInjector inj(plan);
  Bytes probe = *stored;
  inj.CorruptPayload(probe, core::ChunkView::Parse(*stored)->header_len(), 0);
  const uint64_t flipped =
      std::mismatch(probe.begin(), probe.end(), stored->begin()).first -
      probe.begin();
  size_t bad = SIZE_MAX;
  for (size_t f : files) {
    const core::FileMeta* m =
        a->client->snapshot()->Lookup(dlt::FilePath(spec_, f));
    if (flipped >= m->offset && flipped < m->offset + m->length) bad = f;
  }
  ASSERT_NE(bad, SIZE_MAX);

  // A task outside the fabric has to fetch the chunk from the store.
  deployment_->fabric().set_fault_injector(&inj);
  auto b = MakeTask(nullptr, 1, "b");
  sim::VirtualClock cb;
  auto r = Read(*b, cb, bad);
  deployment_->fabric().set_fault_injector(nullptr);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(inj.stats().corruptions_injected, 1u);
  EXPECT_EQ(b->cache->stats().corruptions_detected, 1u);
  EXPECT_EQ(b->cache->stats().chunk_loads, 1u);
  EXPECT_EQ(r->shared_owner(), stored);
  EXPECT_TRUE(dlt::VerifyContent(spec_, bad, r->view()));
}

// Two tenants' threads read every file of one adopted chunk at once, racing
// on the one memo. Every read returns the right bytes, and each read either
// checks its file or skips a check some reader has already made.
TEST_F(SharedMemoTest, ConcurrentTenantsShareOneMemo) {
  CacheFabric fabric(deployment_->fabric(), {});
  auto a = MakeTask(&fabric, 0, "a");
  auto b = MakeTask(&fabric, 1, "b");
  ASSERT_TRUE(a->cache->Preload(0).ok());
  ASSERT_TRUE(b->cache->Preload(0).ok());
  ASSERT_EQ(b->cache->stats().chunk_loads, 0u);
  const std::vector<size_t> files = FilesOfChunk(*a, 0);
  constexpr size_t kPasses = 4;
  constexpr size_t kThreadsPerTask = 2;

  const uint64_t v0 = Verified();
  const uint64_t s0 = Skipped();
  std::atomic<size_t> failures{0};
  std::vector<std::thread> threads;
  for (Task* t : {a.get(), b.get()}) {
    for (size_t k = 0; k < kThreadsPerTask; ++k) {
      threads.emplace_back([&, t] {
        sim::VirtualClock clock;
        for (size_t pass = 0; pass < kPasses; ++pass) {
          for (size_t f : files) {
            auto r = Read(*t, clock, f);
            if (!r.ok() || !dlt::VerifyContent(spec_, f, r->view())) {
              failures.fetch_add(1);
            }
          }
        }
      });
    }
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0u);
  const uint64_t reads = 2 * kThreadsPerTask * kPasses * files.size();
  const uint64_t verified = Verified() - v0;
  EXPECT_EQ(verified + (Skipped() - s0), reads);
  EXPECT_GE(verified, files.size());
  EXPECT_LE(verified, 2 * kThreadsPerTask * files.size());
}

// The memo's own synchronization, without the locks a read path takes on
// the way: two holders of one blob (say tenant A's partition and tenant B's
// adopted copy) set and test bits from two threads, while a third folds in a
// separate memo over the same bytes. Every bit ends set in both views.
TEST(SharedMemoBitsTest, CopiesSetAndTestBitsConcurrently) {
  constexpr size_t kFiles = 200;
  core::ChunkBuilder builder;
  for (size_t i = 0; i < kFiles; ++i) {
    builder.Add("/f" + std::to_string(i), Bytes(8, static_cast<uint8_t>(i)));
  }
  const core::ChunkBuffer loaded =
      core::ChunkBuffer::Wrap(ShareBytes(builder.Finish({}, 0)));
  const core::ChunkBuffer adopted = loaded;
  const core::ChunkBuffer refetched =
      core::ChunkBuffer::Wrap(loaded.shared_blob());
  for (size_t i = 0; i < kFiles; i += 2) refetched.MarkVerified(i);

  std::vector<std::thread> threads;
  threads.emplace_back([&] {
    for (size_t i = 1; i < kFiles; i += 2) loaded.MarkVerified(i);
  });
  threads.emplace_back([&] {
    for (size_t i = 0; i < kFiles; ++i) {
      if (!adopted.Verified(i)) adopted.MarkVerified(i);
    }
  });
  threads.emplace_back([&] { adopted.MergeVerified(refetched); });
  for (auto& t : threads) t.join();
  for (size_t i = 0; i < kFiles; ++i) {
    EXPECT_TRUE(loaded.Verified(i)) << i;
    EXPECT_TRUE(adopted.Verified(i)) << i;
  }
  EXPECT_FALSE(loaded.Verified(kFiles));  // outside the memo
}

}  // namespace
}  // namespace diesel::tenant
