#include "core/client.h"

#include <gtest/gtest.h>

#include "core/deployment.h"
#include "dlt/dataset_gen.h"
#include "ostore/mem_store.h"

namespace diesel::core {
namespace {

class ClientTest : public ::testing::Test {
 protected:
  void SetUp() override {
    DeploymentOptions opts;
    opts.num_client_nodes = 2;
    opts.num_servers = 2;
    deployment_ = std::make_unique<Deployment>(opts);

    spec_.name = "cli";
    spec_.num_classes = 2;
    spec_.files_per_class = 20;
    spec_.mean_file_bytes = 1024;

    writer_ = deployment_->MakeClient(0, 0, spec_.name, 8 * 1024);
    ASSERT_TRUE(dlt::ForEachFile(spec_, [&](const dlt::GeneratedFile& f) {
                  return writer_->Put(f.path, f.content);
                }).ok());
    ASSERT_TRUE(writer_->Flush().ok());
  }

  std::unique_ptr<Deployment> deployment_;
  dlt::DatasetSpec spec_;
  std::unique_ptr<DieselClient> writer_;
};

TEST_F(ClientTest, PutAutoFlushesAtChunkTarget) {
  // 40 files x ~1KB with an 8KB target => several chunks, not one per file.
  EXPECT_GT(writer_->stats().chunks_flushed, 2u);
  EXPECT_LT(writer_->stats().chunks_flushed, spec_.total_files());
}

TEST_F(ClientTest, FlushOnEmptyBuilderIsNoop) {
  uint64_t before = writer_->stats().chunks_flushed;
  ASSERT_TRUE(writer_->Flush().ok());
  EXPECT_EQ(writer_->stats().chunks_flushed, before);
}

TEST_F(ClientTest, GetWithoutSnapshotUsesServer) {
  auto reader = deployment_->MakeClient(1, 0, spec_.name);
  auto content = reader->Get(dlt::FilePath(spec_, 1));
  ASSERT_TRUE(content.ok());
  EXPECT_TRUE(dlt::VerifyContent(spec_, 1, content.value()));
  EXPECT_EQ(reader->stats().files_read, 1u);
}

TEST_F(ClientTest, RequestsRoundRobinAcrossServers) {
  auto reader = deployment_->MakeClient(1, 0, spec_.name);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(reader->Stat(dlt::FilePath(spec_, 0)).ok());
  }
  EXPECT_GT(deployment_->server(0).service().ops_served(), 0u);
  EXPECT_GT(deployment_->server(1).service().ops_served(), 0u);
}

TEST_F(ClientTest, SaveAndLoadMetaRoundTrip) {
  ostore::MemStore disk;
  auto c1 = deployment_->MakeClient(0, 1, spec_.name);
  ASSERT_TRUE(c1->FetchSnapshot().ok());
  ASSERT_TRUE(c1->SaveMeta(disk, "snapshots/cli.meta").ok());

  auto c2 = deployment_->MakeClient(1, 1, spec_.name);
  ASSERT_TRUE(c2->LoadMeta(disk, "snapshots/cli.meta").ok());
  ASSERT_NE(c2->snapshot(), nullptr);
  EXPECT_EQ(c2->snapshot()->num_files(), spec_.total_files());
}

TEST_F(ClientTest, SaveMetaWithoutSnapshotFails) {
  ostore::MemStore disk;
  auto c = deployment_->MakeClient(0, 1, spec_.name);
  EXPECT_EQ(c->SaveMeta(disk, "x").code(), StatusCode::kFailedPrecondition);
}

TEST_F(ClientTest, LoadMetaRejectsWrongDataset) {
  ostore::MemStore disk;
  auto c1 = deployment_->MakeClient(0, 1, spec_.name);
  ASSERT_TRUE(c1->FetchSnapshot().ok());
  ASSERT_TRUE(c1->SaveMeta(disk, "m").ok());
  auto other = deployment_->MakeClient(1, 1, "different-dataset");
  EXPECT_EQ(other->LoadMeta(disk, "m").code(), StatusCode::kInvalidArgument);
}

TEST_F(ClientTest, LoadMetaDetectsStaleSnapshot) {
  ostore::MemStore disk;
  auto c1 = deployment_->MakeClient(0, 1, spec_.name);
  ASSERT_TRUE(c1->FetchSnapshot().ok());
  ASSERT_TRUE(c1->SaveMeta(disk, "m").ok());

  // Mutate the dataset: write one more file -> dataset timestamp moves.
  auto w = deployment_->MakeClient(0, 2, spec_.name);
  w->clock().Advance(Seconds(2.0));  // chunk ids are second-granular
  dlt::GeneratedFile extra = dlt::MakeFile(spec_, spec_.total_files());
  ASSERT_TRUE(w->Put(extra.path, extra.content).ok());
  ASSERT_TRUE(w->Flush().ok());

  auto c2 = deployment_->MakeClient(1, 1, spec_.name);
  Status st = c2->LoadMeta(disk, "m");
  EXPECT_TRUE(st.IsStale()) << st.ToString();
  EXPECT_EQ(c2->snapshot(), nullptr);
}

// A delete by another client must move the dataset's timestamp: a snapshot
// that still resolves the deleted file is stale.
TEST_F(ClientTest, LoadMetaDetectsDeleteByAnotherClient) {
  ostore::MemStore disk;
  auto c1 = deployment_->MakeClient(0, 1, spec_.name);
  ASSERT_TRUE(c1->FetchSnapshot().ok());
  ASSERT_TRUE(c1->SaveMeta(disk, "m").ok());

  auto deleter = deployment_->MakeClient(1, 2, spec_.name);
  ASSERT_TRUE(deleter->Delete(dlt::FilePath(spec_, 3)).ok());

  auto c2 = deployment_->MakeClient(1, 1, spec_.name);
  Status st = c2->LoadMeta(disk, "m");
  EXPECT_TRUE(st.IsStale()) << st.ToString();
  EXPECT_EQ(c2->snapshot(), nullptr);
}

// A write stamped earlier than the dataset's timestamp (a fresh client's
// clock starts at zero) must still move it forward.
TEST_F(ClientTest, LoadMetaDetectsWriteFromClientWithEarlierClock) {
  ostore::MemStore disk;
  auto c1 = deployment_->MakeClient(0, 1, spec_.name);
  ASSERT_TRUE(c1->FetchSnapshot().ok());
  ASSERT_TRUE(c1->SaveMeta(disk, "m").ok());

  auto w = deployment_->MakeClient(1, 2, spec_.name);
  ASSERT_LT(w->clock().now(), writer_->clock().now());
  dlt::GeneratedFile extra = dlt::MakeFile(spec_, spec_.total_files());
  ASSERT_TRUE(w->Put(extra.path, extra.content).ok());
  ASSERT_TRUE(w->Flush().ok());

  auto c2 = deployment_->MakeClient(1, 1, spec_.name);
  Status st = c2->LoadMeta(disk, "m");
  EXPECT_TRUE(st.IsStale()) << st.ToString();
  EXPECT_EQ(c2->snapshot(), nullptr);
}

TEST_F(ClientTest, DeleteInvalidatesLoadedSnapshot) {
  auto c = deployment_->MakeClient(0, 1, spec_.name);
  ASSERT_TRUE(c->FetchSnapshot().ok());
  ASSERT_TRUE(c->Delete(dlt::FilePath(spec_, 2)).ok());
  EXPECT_EQ(c->snapshot(), nullptr);
}

TEST_F(ClientTest, StatMissingFileNotFoundBothPaths) {
  auto c = deployment_->MakeClient(0, 1, spec_.name);
  EXPECT_TRUE(c->Stat("/cli/ghost").status().IsNotFound());
  ASSERT_TRUE(c->FetchSnapshot().ok());
  EXPECT_TRUE(c->Stat("/cli/ghost").status().IsNotFound());
}

TEST_F(ClientTest, CloseDropsConnectionsAndSnapshot) {
  auto c = deployment_->MakeClient(0, 1, spec_.name);
  ASSERT_TRUE(c->FetchSnapshot().ok());
  net::EndpointId ep = c->endpoint();
  EXPECT_GT(deployment_->fabric().connections().ConnectionsOf(ep), 0u);
  c->Close();
  EXPECT_EQ(deployment_->fabric().connections().ConnectionsOf(ep), 0u);
  EXPECT_EQ(c->snapshot(), nullptr);
}

TEST_F(ClientTest, SnapshotListMatchesServerList) {
  auto c = deployment_->MakeClient(0, 1, spec_.name);
  auto server_ls = c->List("/cli/train");
  ASSERT_TRUE(server_ls.ok());
  ASSERT_TRUE(c->FetchSnapshot().ok());
  auto local_ls = c->List("/cli/train");
  ASSERT_TRUE(local_ls.ok());
  ASSERT_EQ(server_ls->size(), local_ls->size());
}

}  // namespace
}  // namespace diesel::core
