// The server's one-pass snapshot build (visiting KV scan, per-shard runs
// merged on (dir hash, base name)) against a reference built from a merged
// PScan, FileMeta::Deserialize and Create: identical bytes, lookups,
// listings and chunk groupings.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "core/deployment.h"
#include "core/snapshot.h"
#include "obs/metrics.h"

namespace diesel::core {
namespace {

constexpr char kDataset[] = "eqv";

Bytes Content(size_t i, size_t n) {
  Bytes out(n);
  for (size_t k = 0; k < n; ++k) out[k] = static_cast<uint8_t>(i * 31 + k);
  return out;
}

/// Nested directories of uneven depth, spread over several chunks; one file
/// deleted and one replaced (tombstoned, rewritten into a later chunk).
std::vector<std::string> Ingest(Deployment& dep) {
  std::vector<std::string> paths;
  for (size_t i = 0; i < 90; ++i) {
    switch (i % 4) {
      case 0: paths.push_back("/train/c" + std::to_string(i % 7) + "/f" +
                              std::to_string(i)); break;
      case 1: paths.push_back("/train/c" + std::to_string(i % 5) + "/deep/" +
                              "x" + std::to_string(i % 3) + "/g" +
                              std::to_string(i)); break;
      // Base names sharing their first 16 bytes: the merge must fall back
      // from its 16-byte prefix words to the full names.
      case 2: paths.push_back("/val/a_shared_prefix_over_16_bytes_" +
                              std::to_string(i)); break;
      default: paths.push_back("/top" + std::to_string(i)); break;
    }
  }
  auto writer = dep.MakeClient(0, 0, kDataset, /*chunk_bytes=*/4096);
  for (size_t i = 0; i < paths.size(); ++i) {
    EXPECT_TRUE(writer->Put(paths[i], Content(i, 300 + i * 7)).ok());
  }
  EXPECT_TRUE(writer->Flush().ok());
  EXPECT_TRUE(writer->Delete(paths[10]).ok());
  EXPECT_TRUE(writer->Replace(paths[21], Content(999, 1234)).ok());
  EXPECT_TRUE(writer->Flush().ok());
  return paths;
}

/// Reference build: a merged PScan, FileMeta::Deserialize, then Create.
MetadataSnapshot ReferenceBuild(Deployment& dep, sim::VirtualClock& clock) {
  MetadataService& meta = dep.server(0).metadata();
  DatasetMeta dm = meta.GetDataset(clock, kDataset).value();
  std::vector<ChunkId> chunks = meta.ListChunks(clock, kDataset).value();
  std::vector<kv::ScanEntry> entries =
      dep.kv().PScan(clock, meta.node(), FileKeyPrefix(kDataset)).value();
  std::vector<FileMeta> files;
  for (const kv::ScanEntry& e : entries) {
    if (e.value.empty()) continue;  // directory marker
    files.push_back(FileMeta::Deserialize(AsBytesView(e.value)).value());
  }
  return MetadataSnapshot::Create(kDataset, dm.update_ts_ns, std::move(chunks),
                                  std::move(files));
}

void ExpectSameFile(const FileMeta* a, const FileMeta* b,
                    const std::string& path) {
  ASSERT_EQ(a == nullptr, b == nullptr) << path;
  if (a == nullptr) return;
  EXPECT_EQ(a->chunk, b->chunk) << path;
  EXPECT_EQ(a->offset, b->offset) << path;
  EXPECT_EQ(a->length, b->length) << path;
  EXPECT_EQ(a->crc, b->crc) << path;
  EXPECT_EQ(a->index_in_chunk, b->index_in_chunk) << path;
  EXPECT_EQ(a->full_name, b->full_name) << path;
}

TEST(SnapshotBuildTest, OnePassBuildMatchesReference) {
  Deployment dep({});
  std::vector<std::string> paths = Ingest(dep);
  sim::VirtualClock clock;
  MetadataSnapshot want = ReferenceBuild(dep, clock);
  ASSERT_GT(want.chunks().size(), 4u);
  ASSERT_EQ(want.num_files(), paths.size() - 1);

  Result<MetadataSnapshot> got =
      dep.server(0).BuildSnapshot(clock, dep.client_node(0), kDataset);
  ASSERT_TRUE(got.ok()) << got.status().ToString();

  EXPECT_EQ(got->Serialize(), want.Serialize());

  std::set<std::string> dirs{"/"};
  for (const std::string& path : paths) {
    ExpectSameFile(got->Lookup(path), want.Lookup(path), path);
    for (std::string_view d = ParentPath(path); d != "/"; d = ParentPath(d)) {
      dirs.emplace(d);
    }
  }
  EXPECT_EQ(got->Lookup(paths[10]), nullptr);  // deleted
  // Replaced: the new version is the only file of the newest chunk.
  EXPECT_EQ(got->Lookup(paths[21])->chunk, want.chunks().back());
  EXPECT_EQ(got->Lookup(paths[21])->length, 1234u);

  for (const std::string& dir : dirs) {
    auto a = got->ListDir(dir);
    auto b = want.ListDir(dir);
    ASSERT_TRUE(a.ok() && b.ok()) << dir;
    ASSERT_EQ(a->size(), b->size()) << dir;
    for (size_t i = 0; i < a->size(); ++i) {
      EXPECT_EQ((*a)[i].name, (*b)[i].name) << dir;
      EXPECT_EQ((*a)[i].is_dir, (*b)[i].is_dir) << dir;
    }
  }

  for (size_t c = 0; c < want.chunks().size(); ++c) {
    std::span<const uint32_t> a = got->FilesOfChunk(c);
    std::span<const uint32_t> b = want.FilesOfChunk(c);
    EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end())) << c;
  }
}

TEST(SnapshotBuildTest, DownShardFailsTheScanAfterRetries) {
  Deployment dep({});
  Ingest(dep);
  obs::Counter& retries =
      obs::Metrics().GetCounter("kv.retries", {{"op", "pscan"}});
  const uint64_t retries_before = retries.value();
  dep.kv().FailShard(static_cast<uint32_t>(dep.kv().NumShards() - 1));
  sim::VirtualClock clock;
  Result<MetadataSnapshot> got =
      dep.server(0).BuildSnapshot(clock, dep.client_node(0), kDataset);
  EXPECT_TRUE(got.status().IsUnavailable()) << got.status().ToString();
  EXPECT_GT(retries.value(), retries_before);
}

}  // namespace
}  // namespace diesel::core
