#include "core/housekeeping.h"

#include <gtest/gtest.h>

#include <set>

#include "core/deployment.h"
#include "dlt/dataset_gen.h"

namespace diesel::core {
namespace {

class HousekeepingTest : public ::testing::Test {
 protected:
  void SetUp() override {
    DeploymentOptions opts;
    deployment_ = std::make_unique<Deployment>(opts);

    spec_.name = "hk";
    spec_.num_classes = 2;
    spec_.files_per_class = 20;
    spec_.mean_file_bytes = 1024;

    auto writer = deployment_->MakeClient(0, 0, spec_.name, 8 * 1024);
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

TEST_F(HousekeepingTest, PurgeWithNoDeletionsIsNoop) {
  auto stats = PurgeDataset(clock_, server(), spec_.name);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->chunks_compacted, 0u);
  EXPECT_EQ(stats->bytes_reclaimed, 0u);
}

TEST_F(HousekeepingTest, PurgeReclaimsDeletedFiles) {
  uint64_t bytes_before = deployment_->store().TotalBytes();
  // Delete a handful of files spread across chunks.
  std::vector<size_t> victims{0, 3, 9, 21, 33};
  for (size_t v : victims) {
    ASSERT_TRUE(server().DeleteFile(clock_, 0, spec_.name,
                                    dlt::FilePath(spec_, v)).ok());
  }
  auto stats = PurgeDataset(clock_, server(), spec_.name);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_GT(stats->chunks_compacted, 0u);
  EXPECT_EQ(stats->files_dropped, victims.size());
  EXPECT_GT(stats->bytes_reclaimed, 0u);
  EXPECT_LT(deployment_->store().TotalBytes(), bytes_before);
}

TEST_F(HousekeepingTest, SurvivorsReadableAfterPurge) {
  ASSERT_TRUE(server().DeleteFile(clock_, 0, spec_.name,
                                  dlt::FilePath(spec_, 5)).ok());
  ASSERT_TRUE(PurgeDataset(clock_, server(), spec_.name).ok());
  // Deleted file stays gone; neighbours still verify.
  EXPECT_TRUE(server().ReadFile(clock_, 0, spec_.name,
                                dlt::FilePath(spec_, 5)).status().IsNotFound());
  for (size_t i : {size_t{4}, size_t{6}, size_t{30}}) {
    auto content = server().ReadFile(clock_, 0, spec_.name,
                                     dlt::FilePath(spec_, i));
    ASSERT_TRUE(content.ok()) << i << ": " << content.status().ToString();
    EXPECT_TRUE(dlt::VerifyContent(spec_, i, content.value())) << i;
  }
}

TEST_F(HousekeepingTest, PurgedChunksHaveCleanBitmaps) {
  ASSERT_TRUE(server().DeleteFile(clock_, 0, spec_.name,
                                  dlt::FilePath(spec_, 2)).ok());
  ASSERT_TRUE(PurgeDataset(clock_, server(), spec_.name).ok());
  auto chunks = server().metadata().ListChunks(clock_, spec_.name);
  ASSERT_TRUE(chunks.ok());
  for (const ChunkId& id : chunks.value()) {
    auto cm = server().metadata().GetChunk(clock_, spec_.name, id);
    ASSERT_TRUE(cm.ok());
    EXPECT_EQ(cm->num_deleted, 0u);
  }
}

TEST_F(HousekeepingTest, SnapshotAfterPurgeIsConsistent) {
  ASSERT_TRUE(server().DeleteFile(clock_, 0, spec_.name,
                                  dlt::FilePath(spec_, 1)).ok());
  ASSERT_TRUE(PurgeDataset(clock_, server(), spec_.name).ok());
  auto snap = server().BuildSnapshot(clock_, 0, spec_.name);
  ASSERT_TRUE(snap.ok());
  EXPECT_EQ(snap->num_files(), spec_.total_files() - 1);
  EXPECT_EQ(snap->Lookup(dlt::FilePath(spec_, 1)), nullptr);
  // Every surviving snapshot entry points into an existing chunk.
  for (const FileMeta& f : snap->files()) {
    EXPECT_NE(snap->ChunkIndex(f.chunk), static_cast<size_t>(-1))
        << f.full_name;
  }
}

TEST_F(HousekeepingTest, RecoveryAfterPurgeSeesCompactedState) {
  ASSERT_TRUE(server().DeleteFile(clock_, 0, spec_.name,
                                  dlt::FilePath(spec_, 0)).ok());
  ASSERT_TRUE(PurgeDataset(clock_, server(), spec_.name).ok());
  // Nuke KV and rebuild from (compacted) chunks.
  for (uint32_t s = 0; s < deployment_->kv().NumShards(); ++s) {
    deployment_->kv().FailShard(s);
    deployment_->kv().RestartShard(s);
  }
  auto stats = server().RecoverMetadata(clock_, spec_.name, 0);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->files_recovered, spec_.total_files() - 1);
}

// Each compacted chunk needs its own ID, also when several chunks share a
// timestamp second and when an earlier purge's output is compacted again.
TEST_F(HousekeepingTest, RepeatedPurgesKeepEverySurvivor) {
  std::set<size_t> deleted;
  for (const std::vector<size_t>& round :
       {std::vector<size_t>{0, 3, 9, 21, 33}, std::vector<size_t>{1, 4, 22}}) {
    for (size_t v : round) {
      ASSERT_TRUE(server().DeleteFile(clock_, 0, spec_.name,
                                      dlt::FilePath(spec_, v)).ok());
      deleted.insert(v);
    }
    auto stats = PurgeDataset(clock_, server(), spec_.name);
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    EXPECT_GT(stats->chunks_compacted, 1u);
    for (size_t i = 0; i < spec_.total_files(); ++i) {
      auto content = server().ReadFile(clock_, 0, spec_.name,
                                       dlt::FilePath(spec_, i));
      if (deleted.count(i) != 0) {
        EXPECT_TRUE(content.status().IsNotFound()) << i;
        continue;
      }
      ASSERT_TRUE(content.ok()) << i << ": " << content.status().ToString();
      EXPECT_TRUE(dlt::VerifyContent(spec_, i, content.value())) << i;
    }
  }
}

}  // namespace
}  // namespace diesel::core
