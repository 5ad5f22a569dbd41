// Property: metadata recovery from self-contained chunks reconstructs the
// KV tier exactly — every key/value pair that ingest, purge or merge left
// is present and identical after a total wipe + RecoverMetadata (§4.1.2).
#include <gtest/gtest.h>

#include <map>

#include "core/deployment.h"
#include "core/housekeeping.h"
#include "dlt/dataset_gen.h"

namespace diesel {
namespace {

std::map<std::string, std::string> DumpKv(kv::KvCluster& kv) {
  std::map<std::string, std::string> out;
  for (uint32_t s = 0; s < kv.NumShards(); ++s) {
    Status st = kv.shard(s).Scan(
        "", 0, [&](std::string_view key, std::string_view value) {
          EXPECT_TRUE(out.emplace(key, value).second) << "dup " << key;
        });
    EXPECT_TRUE(st.ok());
  }
  return out;
}

/// Fail and restart every KV shard, then rebuild `dataset` from its chunk
/// headers.
Result<core::RecoveryStats> WipeAndRecover(core::Deployment& dep,
                                           const std::string& dataset) {
  for (uint32_t s = 0; s < dep.kv().NumShards(); ++s) {
    dep.kv().FailShard(s);
    dep.kv().RestartShard(s);
  }
  EXPECT_EQ(dep.kv().TotalKeys(), 0u);
  sim::VirtualClock admin;
  return dep.server(0).RecoverMetadata(admin, dataset, 0);
}

void ExpectSameKv(const std::map<std::string, std::string>& before,
                  const std::map<std::string, std::string>& after) {
  ASSERT_EQ(after.size(), before.size());
  for (const auto& [key, value] : before) {
    auto it = after.find(key);
    ASSERT_NE(it, after.end()) << "missing key " << key;
    EXPECT_EQ(it->second, value) << "value mismatch for " << key;
  }
}

class RecoveryEquivalenceTest : public ::testing::TestWithParam<size_t> {
 protected:
  /// A dataset of GetParam() ~700-byte files in 4 classes, written in 8 KB
  /// chunks.
  void Ingest(const std::string& name) {
    spec_.name = name;
    spec_.num_classes = 4;
    spec_.files_per_class = GetParam() / 4;
    spec_.mean_file_bytes = 700;
    auto writer = dep_.MakeClient(0, 0, spec_.name, 8 * 1024);
    ASSERT_TRUE(dlt::ForEachFile(spec_, [&](const dlt::GeneratedFile& f) {
                  return writer->Put(f.path, f.content);
                }).ok());
    ASSERT_TRUE(writer->Flush().ok());
  }

  /// Every chunk record, file record and directory marker must come back
  /// byte for byte. The dataset record is left out: housekeeping and
  /// recovery each recount it.
  void ExpectRecoveryRebuildsRecords() {
    std::map<std::string, std::string> before = DumpKv(dep_.kv());
    ASSERT_TRUE(WipeAndRecover(dep_, spec_.name).ok());
    std::map<std::string, std::string> after = DumpKv(dep_.kv());
    ASSERT_EQ(before.erase(core::DatasetKey(spec_.name)), 1u);
    ASSERT_EQ(after.erase(core::DatasetKey(spec_.name)), 1u);
    ExpectSameKv(before, after);
  }

  core::Deployment dep_{{}};
  dlt::DatasetSpec spec_;
};

TEST_P(RecoveryEquivalenceTest, RebuiltKvMatchesOriginalExactly) {
  Ingest("eq");
  std::map<std::string, std::string> original = DumpKv(dep_.kv());
  ASSERT_FALSE(original.empty());
  ASSERT_TRUE(WipeAndRecover(dep_, spec_.name).ok());
  // The dataset record's update timestamp is recomputed from chunk create
  // times by the same rule the ingest path uses, so even it must match
  // (the smallest dataset is one chunk created at time 0) — compare
  // everything byte for byte.
  ExpectSameKv(original, DumpKv(dep_.kv()));
}

TEST_P(RecoveryEquivalenceTest, RecoveryAfterDeletionsPreservesTombstones) {
  Ingest("eqdel");
  sim::VirtualClock clock;
  // Delete a few files, then purge so the chunks themselves carry the
  // compacted truth (the deletion bitmap lives only in KV until purge).
  for (size_t v : {size_t{1}, size_t{3}}) {
    ASSERT_TRUE(dep_.server(0).DeleteFile(clock, 0, spec_.name,
                                          dlt::FilePath(spec_, v)).ok());
  }
  ASSERT_TRUE(core::PurgeDataset(clock, dep_.server(0), spec_.name).ok());

  auto stats = WipeAndRecover(dep_, spec_.name);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->files_recovered, spec_.total_files() - 2);
  // Deleted files stay deleted; survivors verify.
  EXPECT_TRUE(dep_.server(0).ReadFile(clock, 0, spec_.name,
                                      dlt::FilePath(spec_, 1))
                  .status().IsNotFound());
  auto content = dep_.server(0).ReadFile(clock, 0, spec_.name,
                                         dlt::FilePath(spec_, 2));
  ASSERT_TRUE(content.ok());
  EXPECT_TRUE(dlt::VerifyContent(spec_, 2, content.value()));
}

// Purge writes compacted chunks and registers them from their headers, so a
// rebuild from those headers reproduces its records exactly.
TEST_P(RecoveryEquivalenceTest, RecoveryAfterPurgeMatchesPurgedKv) {
  Ingest("eqpurge");
  sim::VirtualClock clock;
  for (size_t v : {size_t{1}, size_t{2}}) {
    ASSERT_TRUE(dep_.server(0).DeleteFile(clock, 0, spec_.name,
                                          dlt::FilePath(spec_, v)).ok());
  }
  auto purged = core::PurgeDataset(clock, dep_.server(0), spec_.name);
  ASSERT_TRUE(purged.ok()) << purged.status().ToString();
  ASSERT_GT(purged->chunks_compacted, 0u);
  ExpectRecoveryRebuildsRecords();
}

// Likewise for the chunks that merging small chunks writes.
TEST_P(RecoveryEquivalenceTest, RecoveryAfterMergeMatchesMergedKv) {
  Ingest("eqmerge");
  sim::VirtualClock clock;
  auto merged = core::MergeSmallChunks(clock, dep_.server(0), spec_.name,
                                       /*min_chunk_bytes=*/32 * 1024);
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  ExpectRecoveryRebuildsRecords();
}

INSTANTIATE_TEST_SUITE_P(DatasetSizes, RecoveryEquivalenceTest,
                         ::testing::Values(8u, 40u, 200u),
                         [](const auto& info) {
                           return "files" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace diesel
