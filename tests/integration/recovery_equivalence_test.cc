// Property: metadata recovery from self-contained chunks reconstructs the
// KV tier exactly — every key/value pair the original ingest produced is
// present and identical after a total wipe + RecoverMetadata (§4.1.2).
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

class RecoveryEquivalenceTest : public ::testing::TestWithParam<size_t> {};

TEST_P(RecoveryEquivalenceTest, RebuiltKvMatchesOriginalExactly) {
  dlt::DatasetSpec spec;
  spec.name = "eq";
  spec.num_classes = 4;
  spec.files_per_class = GetParam() / 4;
  spec.mean_file_bytes = 700;

  core::Deployment dep({});
  auto writer = dep.MakeClient(0, 0, spec.name, 8 * 1024);
  ASSERT_TRUE(dlt::ForEachFile(spec, [&](const dlt::GeneratedFile& f) {
                return writer->Put(f.path, f.content);
              }).ok());
  ASSERT_TRUE(writer->Flush().ok());

  std::map<std::string, std::string> original = DumpKv(dep.kv());
  ASSERT_FALSE(original.empty());

  for (uint32_t s = 0; s < dep.kv().NumShards(); ++s) {
    dep.kv().FailShard(s);
    dep.kv().RestartShard(s);
  }
  ASSERT_EQ(dep.kv().TotalKeys(), 0u);

  sim::VirtualClock admin;
  auto stats = dep.server(0).RecoverMetadata(admin, spec.name, 0);
  ASSERT_TRUE(stats.ok());

  std::map<std::string, std::string> rebuilt = DumpKv(dep.kv());
  // The dataset record's update timestamp is recomputed from chunk create
  // times, which the ingest path also used, so even it must match — compare
  // everything byte for byte.
  ASSERT_EQ(rebuilt.size(), original.size());
  for (const auto& [key, value] : original) {
    auto it = rebuilt.find(key);
    ASSERT_NE(it, rebuilt.end()) << "missing key " << key;
    EXPECT_EQ(it->second, value) << "value mismatch for " << key;
  }
}

TEST_P(RecoveryEquivalenceTest, RecoveryAfterDeletionsPreservesTombstones) {
  dlt::DatasetSpec spec;
  spec.name = "eqdel";
  spec.num_classes = 4;
  spec.files_per_class = GetParam() / 4;
  spec.mean_file_bytes = 700;

  core::Deployment dep({});
  auto writer = dep.MakeClient(0, 0, spec.name, 8 * 1024);
  ASSERT_TRUE(dlt::ForEachFile(spec, [&](const dlt::GeneratedFile& f) {
                return writer->Put(f.path, f.content);
              }).ok());
  ASSERT_TRUE(writer->Flush().ok());

  sim::VirtualClock clock;
  // Delete a few files, then purge so the chunks themselves carry the
  // compacted truth (the deletion bitmap lives only in KV until purge).
  for (size_t v : {size_t{1}, size_t{3}}) {
    ASSERT_TRUE(dep.server(0).DeleteFile(clock, 0, spec.name,
                                         dlt::FilePath(spec, v)).ok());
  }
  ASSERT_TRUE(core::PurgeDataset(clock, dep.server(0), spec.name).ok());

  for (uint32_t s = 0; s < dep.kv().NumShards(); ++s) {
    dep.kv().FailShard(s);
    dep.kv().RestartShard(s);
  }
  auto stats = dep.server(0).RecoverMetadata(clock, spec.name, 0);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->files_recovered, spec.total_files() - 2);
  // Deleted files stay deleted; survivors verify.
  EXPECT_TRUE(dep.server(0).ReadFile(clock, 0, spec.name,
                                     dlt::FilePath(spec, 1))
                  .status().IsNotFound());
  auto content = dep.server(0).ReadFile(clock, 0, spec.name,
                                        dlt::FilePath(spec, 2));
  ASSERT_TRUE(content.ok());
  EXPECT_TRUE(dlt::VerifyContent(spec, 2, content.value()));
}

INSTANTIATE_TEST_SUITE_P(DatasetSizes, RecoveryEquivalenceTest,
                         ::testing::Values(8u, 40u, 200u),
                         [](const auto& info) {
                           return "files" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace diesel
