#include "cache/task_cache.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>

#include "core/deployment.h"
#include "dlt/dataset_gen.h"
#include "net/fault_injector.h"
#include "obs/metrics.h"

namespace diesel::cache {
namespace {

class TaskCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    core::DeploymentOptions opts;
    opts.num_client_nodes = 4;
    deployment_ = std::make_unique<core::Deployment>(opts);

    spec_.name = "tc";
    spec_.num_classes = 2;
    spec_.files_per_class = 40;
    spec_.mean_file_bytes = 2048;

    auto writer = deployment_->MakeClient(0, 0, spec_.name, 16 * 1024);
    ASSERT_TRUE(dlt::ForEachFile(spec_, [&](const dlt::GeneratedFile& f) {
                  return writer->Put(f.path, f.content);
                }).ok());
    ASSERT_TRUE(writer->Flush().ok());

    // 4 nodes x 4 I/O workers.
    for (uint32_t n = 0; n < 4; ++n) {
      for (uint32_t i = 0; i < 4; ++i) {
        clients_.push_back(deployment_->MakeClient(n, i, spec_.name));
        registry_.Register(clients_.back()->endpoint());
      }
    }
    ASSERT_TRUE(clients_[0]->FetchSnapshot().ok());
    snapshot_ = clients_[0]->snapshot();
  }

  static TaskCacheOptions Oneshot() {
    TaskCacheOptions opts;
    opts.policy = CachePolicy::kOneshot;
    return opts;
  }

  TaskCache MakeCache(TaskCacheOptions opts = {}) {
    return TaskCache(deployment_->fabric(), deployment_->server(0),
                     *snapshot_, registry_, opts);
  }

  /// Dataset indices of the first `n` files whose chunks `node` owns.
  std::vector<size_t> FilesOwnedBy(TaskCache& cache, sim::NodeId node,
                                   size_t n) const {
    std::vector<size_t> out;
    for (size_t i = 0; i < spec_.total_files() && out.size() < n; ++i) {
      const core::FileMeta* m = snapshot_->Lookup(dlt::FilePath(spec_, i));
      if (cache.OwnerNodeOfChunk(snapshot_->ChunkIndex(m->chunk)).value() ==
          node) {
        out.push_back(i);
      }
    }
    return out;
  }

  /// Read files `indices` as client 0 through GetFiles, `group` files per
  /// call; contents in input order.
  Result<std::vector<Bytes>> ReadInGroups(TaskCache& cache,
                                          sim::VirtualClock& clock,
                                          const std::vector<size_t>& indices,
                                          size_t group) {
    std::vector<Bytes> out;
    for (size_t g = 0; g < indices.size(); g += group) {
      std::vector<core::FileMeta> metas;
      for (size_t i = g; i < std::min(g + group, indices.size()); ++i) {
        metas.push_back(*snapshot_->Lookup(dlt::FilePath(spec_, indices[i])));
      }
      DIESEL_ASSIGN_OR_RETURN(
          std::vector<core::FileSlice> slices,
          cache.GetFiles(clock, clients_[0]->endpoint(), metas));
      for (const core::FileSlice& s : slices) out.push_back(s.ToBytes());
    }
    return out;
  }

  std::unique_ptr<core::Deployment> deployment_;
  dlt::DatasetSpec spec_;
  std::vector<std::unique_ptr<core::DieselClient>> clients_;
  TaskRegistry registry_;
  const core::MetadataSnapshot* snapshot_ = nullptr;
};

TEST_F(TaskCacheTest, ConnectionTopologyIsPTimesNMinus1) {
  TaskCache cache = MakeCache();
  size_t before = deployment_->fabric().connections().TotalConnections();
  cache.EstablishConnections();
  size_t added =
      deployment_->fabric().connections().TotalConnections() - before;
  // p=4 nodes, n=16 clients: p x (n-1) = 60 directed opens (paper §4.2),
  // versus the full mesh's n x (n-1) = 240. As undirected edges the 6
  // master<->master pairs collapse: 60 - C(4,2) = 54.
  EXPECT_EQ(cache.connections_opened(), 4u * (16u - 1u));
  EXPECT_EQ(added, 4u * (16u - 1u) - 6u);
}

TEST_F(TaskCacheTest, ChunkOwnersCoverAllNodes) {
  TaskCache cache = MakeCache();
  std::set<sim::NodeId> owners;
  for (size_t ci = 0; ci < snapshot_->chunks().size(); ++ci) {
    auto owner = cache.OwnerNodeOfChunk(ci);
    ASSERT_TRUE(owner.ok());
    owners.insert(owner.value());
  }
  EXPECT_EQ(owners.size(), 4u);
}

TEST_F(TaskCacheTest, PreloadPopulatesEverything) {
  TaskCache cache = MakeCache(Oneshot());
  auto end = cache.Preload(0);
  ASSERT_TRUE(end.ok());
  EXPECT_GT(end.value(), 0u);
  EXPECT_DOUBLE_EQ(cache.HitRatio(), 1.0);
  EXPECT_EQ(cache.stats().chunk_loads, snapshot_->chunks().size());
}

TEST_F(TaskCacheTest, OnDemandLoadsLazily) {
  TaskCache cache = MakeCache();
  EXPECT_DOUBLE_EQ(cache.HitRatio(), 0.0);
  sim::VirtualClock clock;
  const core::FileMeta* meta = snapshot_->Lookup(dlt::FilePath(spec_, 0));
  ASSERT_NE(meta, nullptr);
  auto content = cache.GetFile(clock, clients_[0]->endpoint(), *meta);
  ASSERT_TRUE(content.ok());
  EXPECT_TRUE(dlt::VerifyContent(spec_, 0, content->view()));
  EXPECT_GT(cache.HitRatio(), 0.0);
  EXPECT_LT(cache.HitRatio(), 1.0);
}

// A decoded FileMeta whose offset + length wraps around must be refused as
// Corruption, not sliced out of the chunk header it wraps back into. The
// read is issued on the owner node, so no degraded server read can mask it.
TEST_F(TaskCacheTest, WrappingFileRangeIsCorruption) {
  TaskCache cache = MakeCache();
  core::FileMeta bogus = *snapshot_->Lookup(dlt::FilePath(spec_, 0));
  bogus.offset = UINT64_MAX - 7;
  bogus.length = 16;
  bogus.crc = 0;  // no checksum to catch the wrong bytes
  auto owner = cache.OwnerNodeOfChunk(snapshot_->ChunkIndex(bogus.chunk));
  ASSERT_TRUE(owner.ok());
  sim::VirtualClock clock;
  auto content =
      cache.GetFile(clock, clients_[owner.value() * 4]->endpoint(), bogus);
  EXPECT_TRUE(content.status().IsCorruption()) << content.status().ToString();
}

// A snapshot record's index_in_chunk is decoded unbounded. An index past
// the chunk's file count must cost no memo allocation and no false memo
// hit: the file is checked, and counted crc_verified, on every read.
TEST_F(TaskCacheTest, OutOfRangeFileIndexIsCheckedOnEveryRead) {
  const std::string path = dlt::FilePath(spec_, 5);
  Bytes wire = snapshot_->Serialize();
  // A record ends ... crc u32 | index_in_chunk u32 | name length u32 | name.
  // Little-endian, as BinaryWriter writes it.
  BinaryWriter tail;
  tail.PutString(path);
  auto at = std::search(wire.begin(), wire.end(), tail.data().begin(),
                        tail.data().end());
  ASSERT_NE(at, wire.end());
  const uint32_t bogus = UINT32_MAX;
  std::memcpy(&*at - 4, &bogus, sizeof(bogus));
  auto patched = core::MetadataSnapshot::Deserialize(wire);
  ASSERT_TRUE(patched.ok()) << patched.status().ToString();
  const core::FileMeta* meta = patched->Lookup(path);
  ASSERT_NE(meta, nullptr);
  ASSERT_EQ(meta->index_in_chunk, UINT32_MAX);
  ASSERT_NE(meta->crc, 0u);

  TaskCache cache(deployment_->fabric(), deployment_->server(0), *patched,
                  registry_, {});
  auto owner = cache.OwnerNodeOfChunk(patched->ChunkIndex(meta->chunk));
  ASSERT_TRUE(owner.ok());
  const net::EndpointId reader = clients_[owner.value() * 4]->endpoint();
  obs::Counter& verified = obs::Metrics().GetCounter("cache.slice.crc_verified");
  obs::Counter& skipped = obs::Metrics().GetCounter("cache.slice.crc_skipped");
  for (int read = 0; read < 2; ++read) {
    const uint64_t v0 = verified.value();
    const uint64_t s0 = skipped.value();
    sim::VirtualClock clock;
    auto content = cache.GetFile(clock, reader, *meta);
    ASSERT_TRUE(content.ok()) << content.status().ToString();
    EXPECT_TRUE(dlt::VerifyContent(spec_, 5, content->view())) << read;
    EXPECT_EQ(verified.value() - v0, 1u) << read;
    EXPECT_EQ(skipped.value() - s0, 0u) << read;
  }
  EXPECT_EQ(cache.stats().chunk_loads, 1u);
}

TEST_F(TaskCacheTest, SecondReadIsCachedAndCheaper) {
  TaskCache cache = MakeCache();
  const core::FileMeta* meta = snapshot_->Lookup(dlt::FilePath(spec_, 3));
  ASSERT_NE(meta, nullptr);
  sim::VirtualClock first, second;
  ASSERT_TRUE(cache.GetFile(first, clients_[0]->endpoint(), *meta).ok());
  ASSERT_TRUE(cache.GetFile(second, clients_[0]->endpoint(), *meta).ok());
  EXPECT_LT(second.now(), first.now());
  EXPECT_EQ(cache.stats().chunk_loads, 1u);
}

TEST_F(TaskCacheTest, AllClientsReadAllFilesCorrectly) {
  TaskCache cache = MakeCache(Oneshot());
  ASSERT_TRUE(cache.Preload(0).ok());
  sim::VirtualClock clock;
  for (size_t i = 0; i < spec_.total_files(); ++i) {
    const core::FileMeta* meta = snapshot_->Lookup(dlt::FilePath(spec_, i));
    ASSERT_NE(meta, nullptr);
    auto& client = clients_[i % clients_.size()];
    auto content = cache.GetFile(clock, client->endpoint(), *meta);
    ASSERT_TRUE(content.ok()) << content.status().ToString();
    ASSERT_TRUE(dlt::VerifyContent(spec_, i, content->view())) << i;
  }
  auto stats = cache.stats();
  EXPECT_GT(stats.local_hits, 0u);
  EXPECT_GT(stats.peer_hits, stats.local_hits);  // 3/4 of chunks are remote
}

TEST_F(TaskCacheTest, PeerFetchCostsMoreThanLocal) {
  TaskCache cache = MakeCache(Oneshot());
  ASSERT_TRUE(cache.Preload(0).ok());
  // Find one local and one remote file for client 0 (node 0).
  const core::FileMeta *local = nullptr, *remote = nullptr;
  for (size_t i = 0; i < spec_.total_files() && (!local || !remote); ++i) {
    const core::FileMeta* m = snapshot_->Lookup(dlt::FilePath(spec_, i));
    size_t ci = snapshot_->ChunkIndex(m->chunk);
    sim::NodeId owner = cache.OwnerNodeOfChunk(ci).value();
    if (owner == 0 && !local) local = m;
    if (owner != 0 && !remote) remote = m;
  }
  ASSERT_NE(local, nullptr);
  ASSERT_NE(remote, nullptr);
  sim::VirtualClock lc, rc;
  ASSERT_TRUE(cache.GetFile(lc, clients_[0]->endpoint(), *local).ok());
  ASSERT_TRUE(cache.GetFile(rc, clients_[0]->endpoint(), *remote).ok());
  EXPECT_LT(lc.now(), rc.now());
}

TEST_F(TaskCacheTest, DropNodeLosesOnlyItsPartition) {
  TaskCache cache = MakeCache(Oneshot());
  ASSERT_TRUE(cache.Preload(0).ok());
  cache.DropNode(2);
  double ratio = cache.HitRatio();
  EXPECT_LT(ratio, 1.0);
  EXPECT_GT(ratio, 0.5);
}

TEST_F(TaskCacheTest, ReloadRestoresFullCache) {
  TaskCache cache = MakeCache(Oneshot());
  ASSERT_TRUE(cache.Preload(0).ok());
  cache.DropAll();
  EXPECT_DOUBLE_EQ(cache.HitRatio(), 0.0);
  auto end = cache.Preload(Seconds(10.0));
  ASSERT_TRUE(end.ok());
  EXPECT_DOUBLE_EQ(cache.HitRatio(), 1.0);
}

TEST_F(TaskCacheTest, CapacityBoundEvicts) {
  // Partition capacity below the per-node share forces evictions.
  TaskCacheOptions opts;
  opts.per_node_capacity_bytes = 40 * 1024;
  TaskCache cache = MakeCache(opts);
  sim::VirtualClock clock;
  for (size_t i = 0; i < spec_.total_files(); ++i) {
    const core::FileMeta* meta = snapshot_->Lookup(dlt::FilePath(spec_, i));
    auto content = cache.GetFile(clock, clients_[0]->endpoint(), *meta);
    ASSERT_TRUE(content.ok()) << content.status().ToString();
    ASSERT_TRUE(dlt::VerifyContent(spec_, i, content->view()));
  }
  EXPECT_GT(cache.stats().evictions, 0u);
  EXPECT_LT(cache.HitRatio(), 1.0);
}

TEST_F(TaskCacheTest, DownOwnerNodeFailsOverToServer) {
  // Files owned by node 1, requested from node 0: the peer path fails, the
  // owner's breaker eventually opens, and each read degrades to a direct
  // server fetch instead of failing the task. Read alone (groups of 1) or
  // as one multi-get to the down owner (a group of 4), the outcome is the
  // same.
  TaskCache alone = MakeCache(Oneshot());
  TaskCache grouped = MakeCache(Oneshot());
  ASSERT_TRUE(alone.Preload(0).ok());
  ASSERT_TRUE(grouped.Preload(0).ok());
  deployment_->cluster().FailNode(1);
  const std::vector<size_t> victims = FilesOwnedBy(alone, 1, 4);
  ASSERT_EQ(victims.size(), 4u);
  sim::VirtualClock alone_clock;
  sim::VirtualClock grouped_clock;
  auto one = ReadInGroups(alone, alone_clock, victims, 1);
  auto four = ReadInGroups(grouped, grouped_clock, victims, 4);
  ASSERT_TRUE(one.ok()) << one.status().ToString();
  ASSERT_TRUE(four.ok()) << four.status().ToString();
  EXPECT_EQ(one.value(), four.value());
  for (size_t i = 0; i < victims.size(); ++i) {
    EXPECT_TRUE(dlt::VerifyContent(spec_, victims[i], four.value()[i]));
  }
  EXPECT_GT(alone.stats().failovers, 0u);
  EXPECT_EQ(grouped.stats().failovers, alone.stats().failovers);
  EXPECT_EQ(grouped.stats().breaker_opens, alone.stats().breaker_opens);
}

TEST_F(TaskCacheTest, RepeatedPeerFailuresOpenBreaker) {
  TaskCache alone = MakeCache(Oneshot());
  TaskCache grouped = MakeCache(Oneshot());
  ASSERT_TRUE(alone.Preload(0).ok());
  ASSERT_TRUE(grouped.Preload(0).ok());
  deployment_->cluster().FailNode(1);
  const std::vector<size_t> victims = FilesOwnedBy(alone, 1, 8);
  ASSERT_GE(victims.size(), 4u);
  // The same reads one at a time and as multi-gets of 4 to the down owner.
  for (auto [cache, group] : {std::pair{&alone, size_t{1}},
                              std::pair{&grouped, size_t{4}}}) {
    SCOPED_TRACE("group " + std::to_string(group));
    sim::VirtualClock clock;
    auto contents = ReadInGroups(*cache, clock, victims, group);
    ASSERT_TRUE(contents.ok()) << contents.status().ToString();
    for (size_t i = 0; i < victims.size(); ++i) {
      ASSERT_TRUE(dlt::VerifyContent(spec_, victims[i], contents.value()[i]));
    }
    auto stats = cache->stats();
    EXPECT_GE(stats.breaker_opens, 1u);
    EXPECT_EQ(stats.failovers, victims.size());
    // Once open, reads skip the RPC timeout entirely: the fast-failing read
    // must be much cheaper than the first (which burned retries + timeouts).
    sim::VirtualClock probe;
    ASSERT_TRUE(ReadInGroups(*cache, probe, {victims[0]}, 1).ok());
    EXPECT_LT(probe.now(), Millis(5));  // no fault-detect timeout paid
  }
  EXPECT_EQ(grouped.stats().breaker_opens, alone.stats().breaker_opens);
}

TEST_F(TaskCacheTest, OwnerBackendOutageFailsALoneCallButNotAMultiGet) {
  // The owner is up but its backend is not: the owner answers every
  // exchange, yet cannot load the (never-cached) chunk. Alone, that
  // Unavailable slice counts as a failed call: three RPCs open the
  // breaker, then the read fails over to a server read, which is down
  // too. In a multi-get the exchange itself lands, so only its files are
  // unserved; the first is retried alone and ends the same way, one RPC
  // later.
  deployment_->cluster().FailNode(deployment_->server_node(0));
  for (size_t group : {1u, 2u}) {
    SCOPED_TRACE("group " + std::to_string(group));
    TaskCache cache = MakeCache();
    const std::vector<size_t> files = FilesOwnedBy(cache, 1, group);
    ASSERT_EQ(files.size(), group);
    const uint64_t rpcs0 = deployment_->fabric().rpcs_issued();
    sim::VirtualClock clock;
    EXPECT_TRUE(ReadInGroups(cache, clock, files, group)
                    .status().IsUnavailable());
    EXPECT_EQ(deployment_->fabric().rpcs_issued() - rpcs0,
              group == 1 ? 3u : 4u);
    EXPECT_EQ(cache.stats().breaker_opens, 1u);
    EXPECT_EQ(cache.stats().failovers, 1u);
    EXPECT_EQ(cache.stats().peer_hits, 0u);
  }
}

TEST_F(TaskCacheTest, OwnerSubRequestsOverlap) {
  // One batch spans the requester's own partition and three remote owners.
  // Its groups are in flight together, so it ends when its slowest group
  // does, not after the four back to back. Each group is first read alone,
  // a virtual second after any other read, so no read queues behind
  // another on a device.
  TaskCache cache = MakeCache(Oneshot());
  Result<Nanos> warm = cache.Preload(0);
  ASSERT_TRUE(warm.ok());
  Nanos start = *warm;
  auto read = [&](const std::vector<core::FileMeta>& metas) -> Nanos {
    start += Seconds(1);
    sim::VirtualClock clock(start);
    EXPECT_TRUE(cache.GetFiles(clock, clients_[0]->endpoint(), metas).ok());
    return clock.now() - start;
  };
  std::vector<core::FileMeta> batch;
  Nanos slowest = 0;
  for (sim::NodeId node = 0; node < 4; ++node) {
    std::vector<core::FileMeta> group;
    for (size_t i : FilesOwnedBy(cache, node, 4)) {
      group.push_back(*snapshot_->Lookup(dlt::FilePath(spec_, i)));
    }
    ASSERT_EQ(group.size(), 4u);
    slowest = std::max(slowest, read(group));
    batch.insert(batch.end(), group.begin(), group.end());
  }
  const Nanos together = read(batch);
  EXPECT_EQ(together, slowest);
  EXPECT_LT(together, 2 * slowest);
  EXPECT_EQ(cache.stats().local_hits, 8u);
  EXPECT_EQ(cache.stats().peer_hits, 24u);
}

TEST_F(TaskCacheTest, FailedOwnerDoesNotStopOthers) {
  // Owner node 1 and the server's node are flapped over the same window
  // for the whole read, so node 1's group fails and so does its degraded
  // fallback to the server. The other owners are still asked, the call
  // returns node 1's failure, and the clock sits where node 1's group alone
  // ends: its retries outlast every other group.
  TaskCache cache = MakeCache(Oneshot());
  TaskCache flapped_alone = MakeCache(Oneshot());
  Result<Nanos> warm = cache.Preload(0);
  Result<Nanos> warm_alone = flapped_alone.Preload(0);
  ASSERT_TRUE(warm.ok() && warm_alone.ok());
  const Nanos start = std::max(*warm, *warm_alone) + Millis(1);
  net::FaultPlan plan;
  plan.node_flaps.push_back({1, start, start + Seconds(10)});
  plan.node_flaps.push_back(
      {deployment_->server_node(0), start, start + Seconds(10)});
  net::FaultInjector injector(plan);
  deployment_->fabric().set_fault_injector(&injector);

  std::vector<core::FileMeta> batch;
  std::vector<core::FileMeta> flapped;
  for (sim::NodeId node = 0; node < 4; ++node) {
    for (size_t i : FilesOwnedBy(cache, node, 2)) {
      batch.push_back(*snapshot_->Lookup(dlt::FilePath(spec_, i)));
      if (node == 1) flapped.push_back(batch.back());
    }
  }
  ASSERT_EQ(batch.size(), 8u);
  sim::VirtualClock alone(start);
  const Status alone_status =
      flapped_alone.GetFiles(alone, clients_[0]->endpoint(), flapped)
          .status();
  ASSERT_TRUE(alone_status.IsUnavailable());

  const uint64_t rpcs0 = deployment_->fabric().rpcs_issued();
  sim::VirtualClock clock(start);
  const Status status =
      cache.GetFiles(clock, clients_[0]->endpoint(), batch).status();
  EXPECT_EQ(status.ToString(), alone_status.ToString());
  // Nodes 2 and 3 each answered one multi-get; the attempts on the flapped
  // owner and on the flapped server never landed, so they issued nothing.
  EXPECT_EQ(deployment_->fabric().rpcs_issued() - rpcs0, 2u);
  EXPECT_EQ(cache.stats().local_hits, 2u);
  EXPECT_EQ(cache.stats().peer_hits, 4u);
  // Node 1's first file fell back to the server, which failed too.
  EXPECT_EQ(cache.stats().failovers, 1u);
  EXPECT_EQ(clock.now(), alone.now());
  EXPECT_GT(clock.now() - start, Millis(5));
  deployment_->fabric().set_fault_injector(nullptr);
}

TEST_F(TaskCacheTest, EvictedBytesTracksCapacityEvictions) {
  TaskCacheOptions opts;
  opts.per_node_capacity_bytes = 40 * 1024;
  TaskCache cache = MakeCache(opts);
  sim::VirtualClock clock;
  for (size_t i = 0; i < spec_.total_files(); ++i) {
    const core::FileMeta* meta = snapshot_->Lookup(dlt::FilePath(spec_, i));
    ASSERT_TRUE(cache.GetFile(clock, clients_[0]->endpoint(), *meta).ok());
  }
  auto stats = cache.stats();
  ASSERT_GT(stats.evictions, 0u);
  EXPECT_GT(stats.evicted_bytes, 0u);
  // Every eviction removed at least one chunk blob; the totals must be
  // consistent with per-partition capacity (4 nodes).
  EXPECT_GE(stats.evicted_bytes, stats.evictions);  // blobs are > 1 byte
  EXPECT_LE(stats.bytes_cached, 4 * opts.per_node_capacity_bytes);
}

// Chunk indices owned by `node`, in index order.
std::vector<size_t> OwnedChunks(TaskCache& cache,
                                const core::MetadataSnapshot& snap,
                                sim::NodeId node) {
  std::vector<size_t> out;
  for (size_t ci = 0; ci < snap.chunks().size(); ++ci) {
    if (cache.OwnerNodeOfChunk(ci).value() == node) out.push_back(ci);
  }
  return out;
}

TEST_F(TaskCacheTest, PinBlocksEvictionUntilUnpinned) {
  // Capacity sized from an unbounded dry run: room for two of node 0's
  // chunks but not three.
  std::vector<size_t> owned;
  uint64_t two_chunks = 0, three_chunks = 0;
  {
    TaskCache probe = MakeCache();
    owned = OwnedChunks(probe, *snapshot_, 0);
    ASSERT_GE(owned.size(), 3u);
    sim::VirtualClock clock;
    for (size_t i = 0; i < 3; ++i) {
      ASSERT_TRUE(probe.PrefetchChunk(clock, owned[i]).ok());
      if (i == 1) two_chunks = probe.stats().bytes_cached;
    }
    three_chunks = probe.stats().bytes_cached;
  }
  TaskCacheOptions opts;
  opts.per_node_capacity_bytes = (two_chunks + three_chunks) / 2;
  TaskCache cache = MakeCache(opts);
  sim::VirtualClock clock;
  ASSERT_TRUE(cache.PrefetchChunk(clock, owned[0]).ok());
  ASSERT_TRUE(cache.PrefetchChunk(clock, owned[1]).ok());
  cache.Pin(owned[0]);
  EXPECT_EQ(cache.stats().pinned_chunks, 1u);
  // FIFO would evict owned[0]; the pin diverts eviction to owned[1].
  ASSERT_TRUE(cache.PrefetchChunk(clock, owned[2]).ok());
  EXPECT_TRUE(cache.ChunkResident(owned[0]));
  EXPECT_FALSE(cache.ChunkResident(owned[1]));
  EXPECT_TRUE(cache.ChunkResident(owned[2]));
  cache.Unpin(owned[0]);
  EXPECT_EQ(cache.stats().pinned_chunks, 0u);
  // Unpinned, owned[0] is the FIFO victim again.
  ASSERT_TRUE(cache.PrefetchChunk(clock, owned[1]).ok());
  EXPECT_FALSE(cache.ChunkResident(owned[0]));
}

TEST_F(TaskCacheTest, DemandInsertOutranksPrefetchPins) {
  // Capacity holds exactly one of node 0's chunk blobs.
  std::vector<size_t> owned;
  uint64_t one_chunk = 0, two_chunks = 0;
  {
    TaskCache probe = MakeCache();
    owned = OwnedChunks(probe, *snapshot_, 0);
    ASSERT_GE(owned.size(), 2u);
    sim::VirtualClock clock;
    for (size_t i = 0; i < 2; ++i) {
      ASSERT_TRUE(probe.PrefetchChunk(clock, owned[i]).ok());
      if (i == 0) one_chunk = probe.stats().bytes_cached;
    }
    two_chunks = probe.stats().bytes_cached;
  }
  TaskCacheOptions opts;
  opts.per_node_capacity_bytes = (one_chunk + two_chunks) / 2;
  TaskCache cache = MakeCache(opts);
  sim::VirtualClock stream;
  ASSERT_TRUE(cache.PrefetchChunk(stream, owned[0]).ok());
  cache.Pin(owned[0]);
  // Background fills respect pins: with the only slot pinned, a further
  // prefetch is denied.
  auto denied = cache.PrefetchChunk(stream, owned[1]);
  ASSERT_TRUE(denied.ok());
  EXPECT_FALSE(denied->inserted);
  EXPECT_TRUE(cache.ChunkResident(owned[0]));
  // A foreground miss must still get cached: the pinned fill is evicted
  // rather than sending every later read of this chunk to the backend.
  const core::FileMeta* fm = nullptr;
  for (size_t i = 0; i < spec_.total_files() && !fm; ++i) {
    const core::FileMeta* m = snapshot_->Lookup(dlt::FilePath(spec_, i));
    if (snapshot_->ChunkIndex(m->chunk) == owned[1]) fm = m;
  }
  ASSERT_NE(fm, nullptr);
  sim::VirtualClock w;
  ASSERT_TRUE(cache.GetFile(w, clients_[0]->endpoint(), *fm).ok());
  EXPECT_TRUE(cache.ChunkResident(owned[1]));
  EXPECT_FALSE(cache.ChunkResident(owned[0]));
  // The evicted fill never served a read: counted as wasted.
  EXPECT_EQ(cache.stats().prefetch_wasted, 1u);
  cache.Unpin(owned[0]);
  EXPECT_EQ(cache.stats().pinned_chunks, 0u);
}

/// Scripted oracle: next access = fixed per-chunk position, kNever else.
class MapOracle : public EvictionOracle {
 public:
  void Set(size_t chunk, uint64_t pos) { next_[chunk] = pos; }
  uint64_t NextAccessAfter(size_t chunk, uint64_t cursor) const override {
    auto it = next_.find(chunk);
    return it == next_.end() || it->second < cursor ? kNever : it->second;
  }

 private:
  std::map<size_t, uint64_t> next_;
};

TEST_F(TaskCacheTest, BeladyOracleEvictsFarthestNextAccess) {
  std::vector<size_t> owned;
  uint64_t two_chunks = 0, three_chunks = 0;
  {
    TaskCache probe = MakeCache();
    owned = OwnedChunks(probe, *snapshot_, 0);
    ASSERT_GE(owned.size(), 3u);
    sim::VirtualClock clock;
    for (size_t i = 0; i < 3; ++i) {
      ASSERT_TRUE(probe.PrefetchChunk(clock, owned[i]).ok());
      if (i == 1) two_chunks = probe.stats().bytes_cached;
    }
    three_chunks = probe.stats().bytes_cached;
  }
  TaskCacheOptions opts;
  opts.per_node_capacity_bytes = (two_chunks + three_chunks) / 2;
  TaskCache cache = MakeCache(opts);
  MapOracle oracle;
  oracle.Set(owned[0], 10);   // reused soon — keep
  oracle.Set(owned[1], 500);  // farthest reuse — Belady victim
  oracle.Set(owned[2], 20);
  cache.InstallEvictionOracle(&oracle);
  cache.SetEpochCursor(0);
  sim::VirtualClock clock;
  ASSERT_TRUE(cache.PrefetchChunk(clock, owned[0]).ok());
  ASSERT_TRUE(cache.PrefetchChunk(clock, owned[1]).ok());
  ASSERT_TRUE(cache.PrefetchChunk(clock, owned[2]).ok());
  EXPECT_TRUE(cache.ChunkResident(owned[0]));   // FIFO would have evicted it
  EXPECT_FALSE(cache.ChunkResident(owned[1]));
  EXPECT_TRUE(cache.ChunkResident(owned[2]));
  // Cursor passes owned[0]'s reuse: it is now dead (kNever) and becomes the
  // victim even though owned[2]'s access is still ahead.
  cache.SetEpochCursor(15);
  ASSERT_TRUE(cache.PrefetchChunk(clock, owned[1]).ok());
  EXPECT_FALSE(cache.ChunkResident(owned[0]));
  EXPECT_TRUE(cache.ChunkResident(owned[2]));
  cache.InstallEvictionOracle(nullptr);
}

TEST_F(TaskCacheTest, PrefetchHitAndLateAccounting) {
  TaskCache cache = MakeCache();
  // Two files in two different chunks owned by node 0.
  std::vector<size_t> owned;
  {
    owned = OwnedChunks(cache, *snapshot_, 0);
    ASSERT_GE(owned.size(), 2u);
  }
  auto file_in_chunk = [&](size_t ci) -> const core::FileMeta* {
    for (size_t i = 0; i < spec_.total_files(); ++i) {
      const core::FileMeta* m = snapshot_->Lookup(dlt::FilePath(spec_, i));
      if (snapshot_->ChunkIndex(m->chunk) == ci) return m;
    }
    return nullptr;
  };
  const core::FileMeta* early = file_in_chunk(owned[0]);
  const core::FileMeta* late = file_in_chunk(owned[1]);
  ASSERT_NE(early, nullptr);
  ASSERT_NE(late, nullptr);

  sim::VirtualClock stream;
  auto out0 = cache.PrefetchChunk(stream, owned[0]);
  ASSERT_TRUE(out0.ok());
  EXPECT_TRUE(out0->inserted);
  EXPECT_GT(out0->bytes, 0u);
  EXPECT_GT(out0->ready_at, 0u);
  auto out1 = cache.PrefetchChunk(stream, owned[1]);
  ASSERT_TRUE(out1.ok());
  // Re-prefetching a resident chunk is a no-op.
  sim::VirtualClock stream2;
  auto again = cache.PrefetchChunk(stream2, owned[0]);
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(again->already_resident);
  EXPECT_EQ(stream2.now(), 0u);

  // Reader arriving after the fill completed: clean hit, no added wait.
  sim::VirtualClock hit_clock(out0->ready_at + Millis(1));
  ASSERT_TRUE(cache.GetFile(hit_clock, clients_[0]->endpoint(), *early).ok());
  // Reader arriving before the second fill finishes: waits out the
  // remainder (late), clock lands at or beyond ready_at.
  sim::VirtualClock late_clock;
  ASSERT_TRUE(cache.GetFile(late_clock, clients_[0]->endpoint(), *late).ok());
  EXPECT_GE(late_clock.now(), out1->ready_at);

  auto stats = cache.stats();
  EXPECT_EQ(stats.prefetch_hits, 1u);
  EXPECT_EQ(stats.prefetch_late, 1u);
  EXPECT_EQ(stats.prefetch_wasted, 0u);
  // Both reads were served from cache, no extra backend loads.
  EXPECT_EQ(stats.chunk_loads, 2u);
}

}  // namespace
}  // namespace diesel::cache
