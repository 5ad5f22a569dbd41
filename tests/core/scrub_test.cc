#include <gtest/gtest.h>

#include "core/deployment.h"
#include "core/housekeeping.h"
#include "dlt/dataset_gen.h"
#include "ostore/mem_store.h"

namespace diesel::core {
namespace {

class ScrubTest : public ::testing::Test {
 protected:
  void SetUp() override {
    deployment_ = std::make_unique<Deployment>(DeploymentOptions{});
    spec_.name = "scrub";
    spec_.num_classes = 2;
    spec_.files_per_class = 20;
    spec_.mean_file_bytes = 1024;
    auto writer = deployment_->MakeClient(0, 0, spec_.name, 8 * 1024);
    ASSERT_TRUE(dlt::ForEachFile(spec_, [&](const dlt::GeneratedFile& f) {
                  return writer->Put(f.path, f.content);
                }).ok());
    ASSERT_TRUE(writer->Flush().ok());
  }

  /// Flip one byte of the stored chunk object at `byte_from_end`.
  void CorruptChunk(size_t chunk_index, size_t byte_from_end) {
    sim::VirtualClock clock;
    auto chunks = deployment_->server(0).metadata().ListChunks(clock,
                                                               spec_.name);
    ASSERT_TRUE(chunks.ok());
    ASSERT_LT(chunk_index, chunks->size());
    std::string key = ChunkObjectKey(spec_.name, (*chunks)[chunk_index]);
    auto blob = deployment_->store().Get(clock, 0, key);
    ASSERT_TRUE(blob.ok());
    Bytes mutated = *blob.value();
    ASSERT_GE(mutated.size(), byte_from_end + 1);
    mutated[mutated.size() - 1 - byte_from_end] ^= 0xFF;
    ASSERT_TRUE(deployment_->store()
                    .Put(clock, 0, key, ShareBytes(std::move(mutated)))
                    .ok());
  }

  std::unique_ptr<Deployment> deployment_;
  dlt::DatasetSpec spec_;
  sim::VirtualClock clock_;
};

TEST_F(ScrubTest, CleanDatasetPasses) {
  auto stats = ScrubDataset(clock_, deployment_->server(0), spec_.name);
  ASSERT_TRUE(stats.ok());
  EXPECT_GT(stats->chunks_checked, 0u);
  EXPECT_EQ(stats->files_checked, spec_.total_files());
  EXPECT_EQ(stats->corrupt_chunks, 0u);
  EXPECT_EQ(stats->corrupt_files, 0u);
  EXPECT_TRUE(stats->corrupt_keys.empty());
}

TEST_F(ScrubTest, DetectsPayloadCorruption) {
  CorruptChunk(0, 0);  // last payload byte of chunk 0
  auto stats = ScrubDataset(clock_, deployment_->server(0), spec_.name);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->corrupt_chunks, 0u);  // header intact
  EXPECT_EQ(stats->corrupt_files, 1u);
  EXPECT_EQ(stats->corrupt_keys.size(), 1u);
}

TEST_F(ScrubTest, DetectsHeaderCorruption) {
  // Flip a byte near the front of the chunk (inside the header).
  sim::VirtualClock clock;
  auto chunks = deployment_->server(0).metadata().ListChunks(clock,
                                                             spec_.name);
  ASSERT_TRUE(chunks.ok());
  std::string key = ChunkObjectKey(spec_.name, (*chunks)[1]);
  auto blob = deployment_->store().Get(clock, 0, key);
  ASSERT_TRUE(blob.ok());
  Bytes mutated = *blob.value();
  mutated[30] ^= 0x01;
  ASSERT_TRUE(deployment_->store()
                  .Put(clock, 0, key, ShareBytes(std::move(mutated)))
                  .ok());

  auto stats = ScrubDataset(clock_, deployment_->server(0), spec_.name);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->corrupt_chunks, 1u);
  ASSERT_EQ(stats->corrupt_keys.size(), 1u);
  EXPECT_EQ(stats->corrupt_keys[0], key);
}

TEST_F(ScrubTest, ReadOfCorruptFileAlsoFailsClosed) {
  // The scrub's verdict agrees with the read path: the damaged file errors,
  // neighbours still verify.
  CorruptChunk(0, 0);
  auto stats = ScrubDataset(clock_, deployment_->server(0), spec_.name);
  ASSERT_TRUE(stats.ok());
  ASSERT_EQ(stats->corrupt_files, 1u);
  size_t bad_reads = 0, good_reads = 0;
  for (size_t i = 0; i < spec_.total_files(); ++i) {
    auto content = deployment_->server(0).ReadFile(clock_, 0, spec_.name,
                                                   dlt::FilePath(spec_, i));
    // The executor's range reads skip per-file CRC checks (cache path does
    // too: corruption detection is scrub's and ChunkView's job). Verify via
    // content comparison instead.
    ASSERT_TRUE(content.ok());
    if (dlt::VerifyContent(spec_, i, content.value())) {
      ++good_reads;
    } else {
      ++bad_reads;
    }
  }
  EXPECT_EQ(bad_reads, 1u);
  EXPECT_EQ(good_reads, spec_.total_files() - 1);
}

}  // namespace
}  // namespace diesel::core
