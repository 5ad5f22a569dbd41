#include "core/server.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <utility>

#include "core/chunk_format.h"
#include "core/deployment.h"
#include "dlt/dataset_gen.h"
#include "obs/metrics.h"

namespace diesel::core {
namespace {

class ServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    DeploymentOptions opts;
    opts.num_client_nodes = 2;
    deployment_ = std::make_unique<Deployment>(opts);

    spec_.name = "srv";
    spec_.num_classes = 2;
    spec_.files_per_class = 30;
    spec_.mean_file_bytes = 2048;

    auto writer = deployment_->MakeClient(0, 0, spec_.name, 16 * 1024);
    ASSERT_TRUE(dlt::ForEachFile(spec_, [&](const dlt::GeneratedFile& f) {
                  return writer->Put(f.path, f.content);
                }).ok());
    ASSERT_TRUE(writer->Flush().ok());
    chunks_flushed_ = writer->stats().chunks_flushed;
  }

  DieselServer& server() { return deployment_->server(0); }

  std::unique_ptr<Deployment> deployment_;
  dlt::DatasetSpec spec_;
  uint64_t chunks_flushed_ = 0;
  sim::VirtualClock clock_;
};

TEST_F(ServerTest, IngestRejectsCorruptChunk) {
  Status st = server()
                  .IngestChunkAsync(clock_, 0, "bad",
                                    ShareBytes(Bytes(100, 0xAB)))
                  .status();
  EXPECT_TRUE(st.IsCorruption());
}

TEST_F(ServerTest, ReadFileReturnsExactContent) {
  auto content = server().ReadFile(clock_, 0, spec_.name,
                                   dlt::FilePath(spec_, 5));
  ASSERT_TRUE(content.ok());
  EXPECT_TRUE(dlt::VerifyContent(spec_, 5, content.value()));
}

TEST_F(ServerTest, ReadMissingFileIsNotFound) {
  EXPECT_TRUE(server().ReadFile(clock_, 0, spec_.name, "/srv/nope")
                  .status().IsNotFound());
}

TEST_F(ServerTest, RequestExecutorMergesBatchIntoFewRangeReads) {
  // Batch read of many files must issue fewer storage ops than files
  // (the executor sorts by (chunk, offset) and merges adjacent ranges).
  std::vector<std::string> paths;
  for (size_t i = 0; i < 40; ++i) paths.push_back(dlt::FilePath(spec_, i));

  uint64_t ops_before = deployment_->store().device().ops_served();
  auto contents = server().ReadFiles(clock_, 0, spec_.name, paths);
  ASSERT_TRUE(contents.ok()) << contents.status().ToString();
  uint64_t storage_ops =
      deployment_->store().device().ops_served() - ops_before;

  ASSERT_EQ(contents->size(), paths.size());
  for (size_t i = 0; i < paths.size(); ++i) {
    EXPECT_TRUE(dlt::VerifyContent(spec_, i, (*contents)[i])) << i;
  }
  EXPECT_LT(storage_ops, paths.size() / 2);
}

TEST_F(ServerTest, BatchedReadIsFasterThanSingles) {
  std::vector<std::string> paths;
  for (size_t i = 0; i < 30; ++i) paths.push_back(dlt::FilePath(spec_, i));
  sim::VirtualClock batched, single;
  ASSERT_TRUE(server().ReadFiles(batched, 0, spec_.name, paths).ok());
  for (const auto& p : paths) {
    ASSERT_TRUE(server().ReadFile(single, 1, spec_.name, p).ok());
  }
  EXPECT_LT(batched.now(), single.now());
}

// A fixed 16-file batch, every third file of the dataset, read on idle
// devices. Its completion time is pinned: the metadata multi-get's per-shard
// sub-requests run in flight together and each merged range's bytes cross
// the client NIC as soon as that range is read. With both one after another
// (shard RPCs in series, one NIC transfer after the last range) the same
// batch took 1208601 ns.
TEST_F(ServerTest, ReadFilesBatchCompletionTimeIsPinned) {
  std::vector<std::string> paths;
  for (size_t i = 0; i < 16; ++i) paths.push_back(dlt::FilePath(spec_, 3 * i));
  const Nanos start = Millis(1000);
  sim::VirtualClock clock(start);
  auto contents = server().ReadFiles(clock, 0, spec_.name, paths);
  ASSERT_TRUE(contents.ok()) << contents.status().ToString();
  ASSERT_EQ(contents->size(), paths.size());
  for (size_t i = 0; i < paths.size(); ++i) {
    EXPECT_TRUE(dlt::VerifyContent(spec_, 3 * i, (*contents)[i])) << i;
  }
  EXPECT_EQ(clock.now() - start, Nanos{680972});
}

TEST_F(ServerTest, ReadChunkReturnsParsableChunk) {
  auto chunks = server().metadata().ListChunks(clock_, spec_.name);
  ASSERT_TRUE(chunks.ok());
  ASSERT_FALSE(chunks->empty());
  auto blob = server().ReadChunk(clock_, 0, spec_.name, (*chunks)[0]);
  ASSERT_TRUE(blob.ok());
  auto view = ChunkView::Parse(*blob.value());
  ASSERT_TRUE(view.ok());
  EXPECT_EQ(view->id(), (*chunks)[0]);
}

TEST_F(ServerTest, StatAndListDir) {
  auto fm = server().StatFile(clock_, 0, spec_.name, dlt::FilePath(spec_, 0));
  ASSERT_TRUE(fm.ok());
  EXPECT_GT(fm->length, 0u);

  auto ls = server().ListDir(clock_, 0, spec_.name, "/srv/train");
  ASSERT_TRUE(ls.ok());
  EXPECT_EQ(ls->size(), spec_.num_classes);
}

TEST_F(ServerTest, BuildSnapshotMatchesDataset) {
  auto snap = server().BuildSnapshot(clock_, 0, spec_.name);
  ASSERT_TRUE(snap.ok());
  EXPECT_EQ(snap->num_files(), spec_.total_files());
  EXPECT_EQ(snap->chunks().size(), chunks_flushed_);
  EXPECT_NE(snap->Lookup(dlt::FilePath(spec_, 3)), nullptr);
}

TEST_F(ServerTest, DeleteFileThenReadFails) {
  std::string victim = dlt::FilePath(spec_, 7);
  ASSERT_TRUE(server().DeleteFile(clock_, 0, spec_.name, victim).ok());
  EXPECT_TRUE(server().ReadFile(clock_, 0, spec_.name, victim)
                  .status().IsNotFound());
  // Others unaffected.
  EXPECT_TRUE(server().ReadFile(clock_, 0, spec_.name,
                                dlt::FilePath(spec_, 8)).ok());
}

TEST_F(ServerTest, DeleteDatasetRemovesBlobsAndKeys) {
  ASSERT_TRUE(server().DeleteDataset(clock_, 0, spec_.name).ok());
  EXPECT_EQ(deployment_->kv().TotalKeys(), 0u);
  EXPECT_EQ(deployment_->store().NumObjects(), 0u);
  EXPECT_TRUE(server().GetDatasetMeta(clock_, 0, spec_.name)
                  .status().IsNotFound());
}

TEST_F(ServerTest, DatasetNamesCannotAliasAnotherNamespace) {
  // "srv/x" would put its keys under "F/srv/x/...", inside "srv"'s scan
  // prefix: the snapshot build of "srv" would then try to decode them, and
  // deleting "srv" would delete them. Such names are refused up front.
  ChunkBuilder builder(0);
  builder.Add("/f", Bytes(64, 7));
  SharedBytes chunk = ShareBytes(builder.Finish(ChunkId::Make(9, 9, 9, 9), 1));
  const size_t keys = deployment_->kv().TotalKeys();
  const size_t objects = deployment_->store().NumObjects();
  for (const std::string bad : {"srv/x", "", "/"}) {
    EXPECT_EQ(
        server().IngestChunkAsync(clock_, 0, bad, chunk).status().code(),
        StatusCode::kInvalidArgument)
        << bad;
    EXPECT_EQ(server().DeleteDataset(clock_, 0, bad).code(),
              StatusCode::kInvalidArgument) << bad;
    EXPECT_EQ(server().metadata().ListFiles(clock_, bad).status().code(),
              StatusCode::kInvalidArgument) << bad;
  }
  EXPECT_EQ(deployment_->kv().TotalKeys(), keys);
  EXPECT_EQ(deployment_->store().NumObjects(), objects);

  auto snap = server().BuildSnapshot(clock_, 0, spec_.name);
  ASSERT_TRUE(snap.ok()) << snap.status().ToString();
  EXPECT_EQ(snap->num_files(), spec_.num_classes * spec_.files_per_class);
}

TEST_F(ServerTest, PartialRecoveryAfterSingleShardLoss) {
  // Scenario (a): one KV shard dies and restarts empty -> some keys lost.
  size_t keys_before = deployment_->kv().TotalKeys();
  deployment_->kv().FailShard(3);
  deployment_->kv().RestartShard(3);
  ASSERT_LT(deployment_->kv().TotalKeys(), keys_before);

  // Recover from timestamp 0 watermark (all chunks re-scanned; puts are
  // idempotent, lost keys restored).
  auto stats = server().RecoverMetadata(clock_, spec_.name, 0);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(deployment_->kv().TotalKeys(), keys_before);
  EXPECT_TRUE(server().ReadFile(clock_, 0, spec_.name,
                                dlt::FilePath(spec_, 11)).ok());
}

TEST_F(ServerTest, WatermarkRecoverySkipsOldChunks) {
  // All chunks were written at virtual second ~0; a watermark in the future
  // scans nothing.
  auto stats = server().RecoverMetadata(clock_, spec_.name,
                                        /*from_ts_sec=*/1000000);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->chunks_scanned, 0u);
}

TEST_F(ServerTest, RecoveryReadsHeadersNotPayloads) {
  auto dm = server().GetDatasetMeta(clock_, 0, spec_.name);
  ASSERT_TRUE(dm.ok());
  auto stats = server().RecoverMetadata(clock_, spec_.name, 0);
  ASSERT_TRUE(stats.ok());
  EXPECT_GT(stats->header_bytes_read, 0u);
  EXPECT_LT(stats->header_bytes_read, dm->total_bytes / 2)
      << "recovery should not read full chunk payloads";
}

// The dataset record's read-modify-write must not mistake a failed read for
// "no record yet": that would reset the counters to the one new chunk.
TEST_F(ServerTest, IngestSurfacesUnreadableDatasetRecord) {
  kv::KvCluster& kv = deployment_->kv();
  const std::string garbage = "not-a-dataset-record";
  ASSERT_TRUE(kv.Put(clock_, 0, DatasetKey(spec_.name), garbage).ok());

  ChunkBuilder builder(/*target=*/0);
  builder.Add("/srv/late.bin", Bytes(64, 0x5A));
  SharedBytes chunk =
      ShareBytes(builder.Finish(ChunkId::Make(1, 2, 3, 0xABCDEF), 1));
  Status st =
      server().IngestChunkAsync(clock_, 0, spec_.name, chunk).status();
  EXPECT_TRUE(st.IsCorruption()) << st.ToString();
  EXPECT_EQ(kv.Get(clock_, 0, DatasetKey(spec_.name)).value(), garbage);

  // Partial recovery merges into the same record and must refuse it too.
  auto stats = server().RecoverMetadata(clock_, spec_.name,
                                        /*from_ts_sec=*/1000000);
  EXPECT_TRUE(stats.status().IsCorruption()) << stats.status().ToString();
  EXPECT_EQ(kv.Get(clock_, 0, DatasetKey(spec_.name)).value(), garbage);
}

TEST_F(ServerTest, PartialRecoverySurfacesFailedChunkList) {
  kv::KvCluster& kv = deployment_->kv();
  auto before = kv.Get(clock_, 0, DatasetKey(spec_.name));
  ASSERT_TRUE(before.ok());
  // A down shard that does not hold the dataset record fails the chunk
  // listing (pscan touches every shard) but not the record read.
  uint32_t down = (kv.OwnerShard(DatasetKey(spec_.name)) + 1) %
                  static_cast<uint32_t>(kv.NumShards());
  kv.FailShard(down);
  auto stats = server().RecoverMetadata(clock_, spec_.name,
                                        /*from_ts_sec=*/1000000);
  EXPECT_TRUE(stats.status().IsUnavailable()) << stats.status().ToString();
  kv.RestartShard(down);
  EXPECT_EQ(kv.Get(clock_, 0, DatasetKey(spec_.name)).value(), *before);
}

// Every file record addresses the stored chunk object, header included: its
// offset is the header length plus the entry's payload offset, and the
// blob's bytes there are the file.
TEST_F(ServerTest, FileRecordsAddressTheStoredChunk) {
  std::map<std::string, size_t> index_of;
  for (size_t i = 0; i < spec_.total_files(); ++i) {
    index_of[dlt::FilePath(spec_, i)] = i;
  }
  auto chunks = server().metadata().ListChunks(clock_, spec_.name);
  ASSERT_TRUE(chunks.ok());
  ASSERT_EQ(chunks->size(), chunks_flushed_);
  size_t files = 0;
  for (const ChunkId& id : *chunks) {
    auto blob =
        deployment_->store().Get(clock_, 0, ChunkObjectKey(spec_.name, id));
    ASSERT_TRUE(blob.ok());
    const Bytes& bytes = *blob.value();
    auto view = ChunkView::Parse(bytes);
    ASSERT_TRUE(view.ok());
    for (const ChunkFileEntry& e : view->entries()) {
      auto fm = server().metadata().GetFile(clock_, spec_.name, e.name);
      ASSERT_TRUE(fm.ok()) << e.name;
      EXPECT_EQ(fm->offset, view->header_len() + e.offset) << e.name;
      EXPECT_EQ(fm->length, e.length) << e.name;
      ASSERT_LE(fm->offset, bytes.size()) << e.name;
      ASSERT_LE(fm->length, bytes.size() - fm->offset) << e.name;
      ASSERT_EQ(index_of.count(e.name), 1u) << e.name;
      EXPECT_TRUE(dlt::VerifyContent(
          spec_, index_of[e.name],
          BytesView(bytes.data() + fm->offset, fm->length)))
          << e.name;
      ++files;
    }
  }
  EXPECT_EQ(files, spec_.total_files());
}

// The whole dataset as one batch: its files span every chunk.
class ServerBatchTest : public ServerTest {
 protected:
  void SetUp() override {
    ServerTest::SetUp();
    for (size_t i = 0; i < spec_.total_files(); ++i) {
      paths_.push_back(dlt::FilePath(spec_, i));
      auto fm = server().metadata().GetFile(clock_, spec_.name, paths_[i]);
      ASSERT_TRUE(fm.ok());
      // The files of a chunk are contiguous, so the executor reads each
      // chunk of the batch as one range.
      auto [it, added] =
          ranges_.try_emplace(fm->chunk, fm->offset, fm->offset + fm->length);
      if (!added) {
        it->second.first = std::min(it->second.first, fm->offset);
        it->second.second =
            std::max(it->second.second, fm->offset + fm->length);
      }
    }
    ASSERT_GE(ranges_.size(), 4u);
  }

  std::vector<std::string> paths_;
  std::map<ChunkId, std::pair<uint64_t, uint64_t>> ranges_;  // [lo, hi)
};

TEST_F(ServerBatchTest, ReadFilesTakesNoPerChunkMetadataGet) {
  const obs::Counter& gets =
      obs::Metrics().GetCounter("kv.ops", {{"op", "get"}});
  const obs::Counter& mgets =
      obs::Metrics().GetCounter("kv.ops", {{"op", "mget"}});
  const uint64_t gets0 = gets.value();
  const uint64_t mgets0 = mgets.value();
  auto contents = server().ReadFiles(clock_, 0, spec_.name, paths_);
  ASSERT_TRUE(contents.ok()) << contents.status().ToString();
  for (size_t i = 0; i < paths_.size(); ++i) {
    EXPECT_TRUE(dlt::VerifyContent(spec_, i, (*contents)[i])) << i;
  }
  EXPECT_EQ(gets.value() - gets0, 0u);
  EXPECT_GT(mgets.value() - mgets0, 0u);
}

// The executor reads a batch's ranges on parallel store streams: the batch
// finishes before the same ranges read one after another would, and never
// before the slowest of them alone. Each measurement starts long after the
// previous one ended, so devices are idle at its start.
TEST_F(ServerBatchTest, RangesOverlapOnStoreStreams) {
  Nanos start = Millis(1000);
  Nanos serial = 0;
  Nanos slowest = 0;
  for (const auto& [chunk, range] : ranges_) {
    sim::VirtualClock c(start);
    auto bytes = deployment_->store().GetRange(
        c, server().node(), ChunkObjectKey(spec_.name, chunk), range.first,
        range.second - range.first);
    ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
    serial += c.now() - start;
    slowest = std::max(slowest, c.now() - start);
    start += Millis(1000);
  }
  sim::VirtualClock batch(start);
  ASSERT_TRUE(server().ReadFiles(batch, 0, spec_.name, paths_).ok());
  const Nanos batched = batch.now() - start;
  EXPECT_LT(batched, serial);
  EXPECT_GE(batched, slowest);
}

}  // namespace
}  // namespace diesel::core
