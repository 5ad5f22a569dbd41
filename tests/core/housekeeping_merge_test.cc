#include <gtest/gtest.h>

#include "core/deployment.h"
#include "core/housekeeping.h"
#include "dlt/dataset_gen.h"

namespace diesel::core {
namespace {

class MergeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    deployment_ = std::make_unique<Deployment>(DeploymentOptions{});
    spec_.name = "merge";
    spec_.num_classes = 2;
    spec_.files_per_class = 30;
    spec_.mean_file_bytes = 1024;
    // Tiny chunk target -> many undersized chunks to coalesce.
    auto writer = deployment_->MakeClient(0, 0, spec_.name, 4 * 1024);
    ASSERT_TRUE(dlt::ForEachFile(spec_, [&](const dlt::GeneratedFile& f) {
                  return writer->Put(f.path, f.content);
                }).ok());
    ASSERT_TRUE(writer->Flush().ok());
  }

  DieselServer& server() { return deployment_->server(0); }

  std::unique_ptr<Deployment> deployment_;
  dlt::DatasetSpec spec_;
  sim::VirtualClock clock_;
};

TEST_F(MergeTest, CoalescesSmallChunks) {
  auto before = server().metadata().ListChunks(clock_, spec_.name);
  ASSERT_TRUE(before.ok());
  ASSERT_GT(before->size(), 4u);

  auto stats = MergeSmallChunks(clock_, server(), spec_.name,
                                /*min_chunk_bytes=*/32 * 1024);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_GT(stats->chunks_merged, stats->chunks_created);

  auto after = server().metadata().ListChunks(clock_, spec_.name);
  ASSERT_TRUE(after.ok());
  EXPECT_LT(after->size(), before->size());

  // Every file still reads back bit-exact.
  for (size_t i = 0; i < spec_.total_files(); ++i) {
    auto content = server().ReadFile(clock_, 0, spec_.name,
                                     dlt::FilePath(spec_, i));
    ASSERT_TRUE(content.ok()) << i << ": " << content.status().ToString();
    EXPECT_TRUE(dlt::VerifyContent(spec_, i, content.value())) << i;
  }
  // Dataset accounting matches the new chunk list and the stored blobs.
  auto dm = server().metadata().GetDataset(clock_, spec_.name);
  ASSERT_TRUE(dm.ok());
  EXPECT_EQ(dm->num_chunks, after->size());
  auto keys =
      deployment_->store().List(clock_, 0, ChunkObjectPrefix(spec_.name));
  ASSERT_TRUE(keys.ok());
  uint64_t blob_bytes = 0;
  for (const std::string& key : keys.value()) {
    auto size = deployment_->store().Size(clock_, 0, key);
    ASSERT_TRUE(size.ok());
    blob_bytes += size.value();
  }
  EXPECT_EQ(dm->total_bytes, blob_bytes);
}

// A second merge consumes the first one's output; the chunks it writes
// must not reuse those IDs.
TEST_F(MergeTest, RepeatedMergesKeepEveryFile) {
  for (uint64_t min_bytes : {16 * 1024, 64 * 1024}) {
    auto stats = MergeSmallChunks(clock_, server(), spec_.name, min_bytes);
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    EXPECT_GT(stats->chunks_created, 0u);
    for (size_t i = 0; i < spec_.total_files(); ++i) {
      auto content = server().ReadFile(clock_, 0, spec_.name,
                                       dlt::FilePath(spec_, i));
      ASSERT_TRUE(content.ok()) << i << ": " << content.status().ToString();
      EXPECT_TRUE(dlt::VerifyContent(spec_, i, content.value())) << i;
    }
  }
}

TEST_F(MergeTest, NoopWhenChunksAreLargeEnough) {
  auto stats = MergeSmallChunks(clock_, server(), spec_.name,
                                /*min_chunk_bytes=*/1);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->chunks_merged, 0u);
  EXPECT_EQ(stats->chunks_created, 0u);
}

TEST_F(MergeTest, RefusesChunksWithHoles) {
  ASSERT_TRUE(server().DeleteFile(clock_, 0, spec_.name,
                                  dlt::FilePath(spec_, 0)).ok());
  auto stats = MergeSmallChunks(clock_, server(), spec_.name, 32 * 1024);
  EXPECT_EQ(stats.status().code(), StatusCode::kFailedPrecondition);
  // Purge first, then merge succeeds.
  ASSERT_TRUE(PurgeDataset(clock_, server(), spec_.name).ok());
  auto retry = MergeSmallChunks(clock_, server(), spec_.name, 32 * 1024);
  ASSERT_TRUE(retry.ok()) << retry.status().ToString();
  EXPECT_GT(retry->chunks_created, 0u);
}

TEST_F(MergeTest, SnapshotAndRecoveryConsistentAfterMerge) {
  ASSERT_TRUE(MergeSmallChunks(clock_, server(), spec_.name, 32 * 1024).ok());
  auto snap = server().BuildSnapshot(clock_, 0, spec_.name);
  ASSERT_TRUE(snap.ok());
  EXPECT_EQ(snap->num_files(), spec_.total_files());
  for (const FileMeta& f : snap->files()) {
    EXPECT_NE(snap->ChunkIndex(f.chunk), static_cast<size_t>(-1));
  }
  // Full KV loss + recovery sees the merged layout.
  for (uint32_t s = 0; s < deployment_->kv().NumShards(); ++s) {
    deployment_->kv().FailShard(s);
    deployment_->kv().RestartShard(s);
  }
  auto rec = server().RecoverMetadata(clock_, spec_.name, 0);
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ(rec->files_recovered, spec_.total_files());
  auto content = server().ReadFile(clock_, 0, spec_.name,
                                   dlt::FilePath(spec_, 17));
  ASSERT_TRUE(content.ok());
  EXPECT_TRUE(dlt::VerifyContent(spec_, 17, content.value()));
}

TEST_F(MergeTest, ReplaceThenPurgeThenMergeKeepsLatestVersion) {
  auto client = deployment_->MakeClient(1, 0, spec_.name);
  client->clock().Advance(Seconds(2.0));
  std::string path = dlt::FilePath(spec_, 5);
  std::string new_content = "version-2 payload";
  ASSERT_TRUE(client->Replace(path, AsBytesView(new_content)).ok());

  auto read_back = client->Get(path);
  ASSERT_TRUE(read_back.ok());
  EXPECT_EQ(ToString(read_back.value()), new_content);

  ASSERT_TRUE(PurgeDataset(clock_, server(), spec_.name).ok());
  ASSERT_TRUE(MergeSmallChunks(clock_, server(), spec_.name, 32 * 1024).ok());
  read_back = client->Get(path);
  ASSERT_TRUE(read_back.ok());
  EXPECT_EQ(ToString(read_back.value()), new_content);
}

}  // namespace
}  // namespace diesel::core
