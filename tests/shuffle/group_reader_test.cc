#include "shuffle/group_reader.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <set>

#include "core/deployment.h"
#include "dlt/dataset_gen.h"

namespace diesel::shuffle {
namespace {

class GroupReaderTest : public ::testing::Test {
 protected:
  void SetUp() override {
    core::DeploymentOptions opts;
    deployment_ = std::make_unique<core::Deployment>(opts);

    spec_.name = "gr";
    spec_.num_classes = 2;
    spec_.files_per_class = 60;
    spec_.mean_file_bytes = 1024;

    auto writer = deployment_->MakeClient(0, 0, spec_.name, 8 * 1024);
    ASSERT_TRUE(dlt::ForEachFile(spec_, [&](const dlt::GeneratedFile& f) {
                  return writer->Put(f.path, f.content);
                }).ok());
    ASSERT_TRUE(writer->Flush().ok());

    auto snap = deployment_->server(0).BuildSnapshot(clock_, 0, spec_.name);
    ASSERT_TRUE(snap.ok());
    snapshot_ = std::move(snap).value();
  }

  std::unique_ptr<core::Deployment> deployment_;
  dlt::DatasetSpec spec_;
  core::MetadataSnapshot snapshot_;
  sim::VirtualClock clock_;
};

TEST_F(GroupReaderTest, ReadsEveryFileWithCorrectContent) {
  Rng rng(1);
  GroupWindowReader reader(deployment_->server(0), snapshot_, 0);
  reader.StartEpoch(ChunkWiseShuffle(snapshot_, {.group_size = 4}, rng));
  std::vector<bool> seen(spec_.total_files(), false);
  while (!reader.Done()) {
    uint32_t idx = reader.PeekIndex().value();
    auto content = reader.Next(clock_);
    ASSERT_TRUE(content.ok()) << content.status().ToString();
    const core::FileMeta& fm = snapshot_.files()[idx];
    // Recover the generated-file index from its path for verification.
    for (size_t i = 0; i < spec_.total_files(); ++i) {
      if (dlt::FilePath(spec_, i) == fm.full_name) {
        EXPECT_TRUE(dlt::VerifyContent(spec_, i, content->view()));
        seen[i] = true;
        break;
      }
    }
  }
  EXPECT_TRUE(std::all_of(seen.begin(), seen.end(), [](bool b) { return b; }));
  EXPECT_EQ(reader.stats().files_read, spec_.total_files());
}

TEST_F(GroupReaderTest, FetchesEachChunkExactlyOncePerEpoch) {
  Rng rng(2);
  GroupWindowReader reader(deployment_->server(0), snapshot_, 0);
  reader.StartEpoch(ChunkWiseShuffle(snapshot_, {.group_size = 3}, rng));
  while (!reader.Done()) {
    ASSERT_TRUE(reader.Next(clock_).ok());
  }
  EXPECT_EQ(reader.stats().chunk_fetches, snapshot_.chunks().size());
}

TEST_F(GroupReaderTest, WindowMemoryBoundedByGroupSize) {
  Rng rng(3);
  GroupWindowReader reader(deployment_->server(0), snapshot_, 0);
  const size_t G = 2;
  reader.StartEpoch(ChunkWiseShuffle(snapshot_, {.group_size = G}, rng));
  while (!reader.Done()) {
    ASSERT_TRUE(reader.Next(clock_).ok());
  }
  // Chunks are ~8KB target + header slack; window holds at most G of them.
  EXPECT_LE(reader.stats().peak_window_bytes, G * 24 * 1024);
  // And far below the whole dataset.
  EXPECT_LT(reader.stats().peak_window_bytes,
            reader.stats().chunk_bytes_fetched / 3);
}

TEST_F(GroupReaderTest, ExhaustedEpochReturnsOutOfRange) {
  Rng rng(4);
  GroupWindowReader reader(deployment_->server(0), snapshot_, 0);
  reader.StartEpoch(ChunkWiseShuffle(snapshot_, {.group_size = 100}, rng));
  while (!reader.Done()) {
    ASSERT_TRUE(reader.Next(clock_).ok());
  }
  EXPECT_EQ(reader.Next(clock_).status().code(), StatusCode::kOutOfRange);
  EXPECT_EQ(reader.PeekIndex().status().code(), StatusCode::kOutOfRange);
}

TEST_F(GroupReaderTest, NewEpochRewinds) {
  Rng rng(5);
  GroupWindowReader reader(deployment_->server(0), snapshot_, 0);
  reader.StartEpoch(ChunkWiseShuffle(snapshot_, {.group_size = 4}, rng));
  while (!reader.Done()) ASSERT_TRUE(reader.Next(clock_).ok());
  reader.StartEpoch(ChunkWiseShuffle(snapshot_, {.group_size = 4}, rng));
  EXPECT_FALSE(reader.Done());
  EXPECT_EQ(reader.position(), 0u);
  size_t count = 0;
  while (!reader.Done()) {
    ASSERT_TRUE(reader.Next(clock_).ok());
    ++count;
  }
  EXPECT_EQ(count, spec_.total_files());
}

TEST_F(GroupReaderTest, PartitionedPlansReadDisjointFiles) {
  Rng rng(6);
  ShufflePlan plan = ChunkWiseShuffle(snapshot_, {.group_size = 2}, rng);
  std::set<uint32_t> seen;
  for (size_t part = 0; part < 3; ++part) {
    GroupWindowReader reader(deployment_->server(0), snapshot_,
                             static_cast<sim::NodeId>(part));
    reader.StartEpoch(PartitionPlan(plan, part, 3));
    while (!reader.Done()) {
      uint32_t idx = reader.PeekIndex().value();
      ASSERT_TRUE(reader.Next(clock_).ok());
      EXPECT_TRUE(seen.insert(idx).second);
    }
  }
  EXPECT_EQ(seen.size(), spec_.total_files());
}

TEST_F(GroupReaderTest, PrefetchHidesGroupBoundaryStalls) {
  Rng rng_a(8), rng_b(8);
  // Same plan for both readers (same seed).
  GroupWindowReader plain(deployment_->server(0), snapshot_, 0);
  GroupWindowReader prefetching(deployment_->server(0), snapshot_, 0);
  prefetching.set_prefetch_next_group(true);
  plain.StartEpoch(ChunkWiseShuffle(snapshot_, {.group_size = 3}, rng_a));
  prefetching.StartEpoch(ChunkWiseShuffle(snapshot_, {.group_size = 3},
                                          rng_b));

  // Consumer "computes" on every file, giving the background fetch time to
  // run ahead; the prefetching reader's epoch must finish sooner.
  constexpr Nanos kComputePerFile = Micros(500);
  sim::VirtualClock plain_clock, prefetch_clock;
  while (!plain.Done()) {
    ASSERT_TRUE(plain.Next(plain_clock).ok());
    plain_clock.Advance(kComputePerFile);
  }
  size_t files = 0;
  while (!prefetching.Done()) {
    ASSERT_TRUE(prefetching.Next(prefetch_clock).ok());
    prefetch_clock.Advance(kComputePerFile);
    ++files;
  }
  EXPECT_EQ(files, spec_.total_files());
  EXPECT_LT(prefetch_clock.now(), plain_clock.now());
  // Same total I/O, double the resident window.
  EXPECT_EQ(prefetching.stats().chunk_fetches, plain.stats().chunk_fetches);
  EXPECT_GT(prefetching.stats().peak_window_bytes,
            plain.stats().peak_window_bytes);
}

TEST_F(GroupReaderTest, PrefetchedEpochStillCoversEveryFileOnce) {
  Rng rng(9);
  GroupWindowReader reader(deployment_->server(0), snapshot_, 0);
  reader.set_prefetch_next_group(true);
  reader.StartEpoch(ChunkWiseShuffle(snapshot_, {.group_size = 4}, rng));
  std::set<uint32_t> seen;
  sim::VirtualClock clock;
  while (!reader.Done()) {
    uint32_t idx = reader.PeekIndex().value();
    ASSERT_TRUE(reader.Next(clock).ok());
    EXPECT_TRUE(seen.insert(idx).second);
  }
  EXPECT_EQ(seen.size(), spec_.total_files());
  // New epoch resets prefetch state cleanly.
  reader.StartEpoch(ChunkWiseShuffle(snapshot_, {.group_size = 4}, rng));
  size_t count = 0;
  while (!reader.Done()) {
    ASSERT_TRUE(reader.Next(clock).ok());
    ++count;
  }
  EXPECT_EQ(count, spec_.total_files());
}

TEST_F(GroupReaderTest, ChunkReadsChargeVirtualTime) {
  Rng rng(7);
  GroupWindowReader reader(deployment_->server(0), snapshot_, 0);
  reader.StartEpoch(ChunkWiseShuffle(snapshot_, {.group_size = 4}, rng));
  Nanos t0 = clock_.now();
  ASSERT_TRUE(reader.Next(clock_).ok());
  EXPECT_GT(clock_.now(), t0);  // group load charged
  Nanos t1 = clock_.now();
  ASSERT_TRUE(reader.Next(clock_).ok());
  EXPECT_EQ(clock_.now(), t1);  // window hit: no further storage time
}

// A snapshot loaded from disk can carry any offset. One whose end wraps past
// UINT64_MAX back into the chunk must fail as Corruption, not slice outside
// the blob.
TEST_F(GroupReaderTest, WrappingFileRangeFromLoadedSnapshotIsCorruption) {
  const core::FileMeta& victim = snapshot_.files().at(5);
  uint8_t field[16];
  std::memcpy(field, &victim.offset, 8);
  std::memcpy(field + 8, &victim.length, 8);
  Bytes bytes = snapshot_.Serialize();
  const auto at = std::search(bytes.begin(), bytes.end(), field, field + 16);
  ASSERT_NE(at, bytes.end());
  ASSERT_EQ(std::search(at + 1, bytes.end(), field, field + 16), bytes.end());
  const uint64_t offset = UINT64_MAX - 7;
  const uint64_t length = 16;
  std::memcpy(&*at, &offset, 8);
  std::memcpy(&*at + 8, &length, 8);
  auto loaded = core::MetadataSnapshot::Deserialize(bytes);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->files().at(5).offset, offset);

  Rng rng(3);
  GroupWindowReader reader(deployment_->server(0), *loaded, 0);
  reader.StartEpoch(ChunkWiseShuffle(*loaded, {.group_size = 4}, rng));
  bool reached = false;
  while (!reader.Done()) {
    const uint32_t idx = reader.PeekIndex().value();
    auto slice = reader.Next(clock_);
    if (idx == 5) {
      EXPECT_TRUE(slice.status().IsCorruption()) << slice.status().ToString();
      reached = true;
      break;
    }
    ASSERT_TRUE(slice.ok()) << slice.status().ToString();
  }
  EXPECT_TRUE(reached);
}

// A stored chunk whose payload rots after ingest keeps a valid header, so
// the window's ChunkView::Parse accepts it. The file CRC must still stop the
// flipped byte: that file returns Corruption, stays unconsumed (a re-read of
// the stored blob would return the same bytes), and every other file reads.
TEST_F(GroupReaderTest, CorruptStoredPayloadIsNotServed) {
  const uint32_t victim = 5;
  const core::FileMeta& fm = snapshot_.files().at(victim);
  ASSERT_GT(fm.length, 0u);
  core::DieselServer& server = deployment_->server(0);
  const std::string key = core::ChunkObjectKey(spec_.name, fm.chunk);
  auto stored = server.store().Get(clock_, 0, key);
  ASSERT_TRUE(stored.ok()) << stored.status().ToString();
  Bytes rotten = **stored;
  rotten.at(fm.offset) ^= 0x01;
  ASSERT_TRUE(core::ChunkView::Parse(rotten).ok());
  ASSERT_TRUE(server.store().Put(clock_, 0, key, ShareBytes(rotten)).ok());

  std::map<std::string, size_t> generated;
  for (size_t i = 0; i < spec_.total_files(); ++i) {
    generated[dlt::FilePath(spec_, i)] = i;
  }
  Rng rng(9);
  const ShufflePlan plan =
      ChunkWiseShuffle(snapshot_, {.group_size = 4}, rng);
  const size_t at =
      std::find(plan.file_order.begin(), plan.file_order.end(), victim) -
      plan.file_order.begin();
  ASSERT_LT(at, plan.file_order.size());
  // The same epoch without the victim, to read on past it.
  ShufflePlan rest = plan;
  rest.file_order.erase(rest.file_order.begin() + static_cast<ptrdiff_t>(at));
  for (size_t& begin : rest.group_begin) {
    if (begin > at) --begin;
  }

  GroupWindowReader reader(server, snapshot_, 0);
  reader.StartEpoch(plan);
  while (reader.position() < at) {
    const uint32_t idx = reader.PeekIndex().value();
    auto content = reader.Next(clock_);
    ASSERT_TRUE(content.ok()) << content.status().ToString();
    const size_t i = generated.at(snapshot_.files()[idx].full_name);
    EXPECT_TRUE(dlt::VerifyContent(spec_, i, content->view())) << i;
  }
  for (int attempt = 0; attempt < 2; ++attempt) {
    auto bad = reader.Next(clock_);
    EXPECT_TRUE(bad.status().IsCorruption()) << bad.status().ToString();
    EXPECT_EQ(reader.position(), at);
  }

  reader.StartEpoch(rest);
  size_t served = 0;
  while (!reader.Done()) {
    const uint32_t idx = reader.PeekIndex().value();
    auto content = reader.Next(clock_);
    ASSERT_TRUE(content.ok()) << content.status().ToString();
    const size_t i = generated.at(snapshot_.files()[idx].full_name);
    EXPECT_TRUE(dlt::VerifyContent(spec_, i, content->view())) << i;
    ++served;
  }
  EXPECT_EQ(served, spec_.total_files() - 1);
}

}  // namespace
}  // namespace diesel::shuffle
