#include "core/metadata.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>

#include "common/crc32.h"
#include "common/hash.h"
#include "net/fabric.h"
#include "sim/node.h"

namespace diesel::core {
namespace {

TEST(PathHelpersTest, ParentAndBase) {
  EXPECT_EQ(ParentPath("/a/b/c"), "/a/b");
  EXPECT_EQ(ParentPath("/a"), "/");
  EXPECT_EQ(ParentPath("/"), "/");
  EXPECT_EQ(BaseName("/a/b/c"), "c");
  EXPECT_EQ(BaseName("/a"), "a");
}

TEST(CodecTest, FileMetaRoundTrip) {
  FileMeta m;
  m.chunk = ChunkId::Make(9, 8, 7, 6);
  m.offset = 1234;
  m.length = 5678;
  m.crc = 0xDEADBEEF;
  m.index_in_chunk = 42;
  m.full_name = "/ds/train/cls1/img.bin";
  auto back = FileMeta::Deserialize(m.Serialize());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->chunk, m.chunk);
  EXPECT_EQ(back->offset, m.offset);
  EXPECT_EQ(back->length, m.length);
  EXPECT_EQ(back->crc, m.crc);
  EXPECT_EQ(back->index_in_chunk, m.index_in_chunk);
  EXPECT_EQ(back->full_name, m.full_name);
}

TEST(CodecTest, ChunkMetaRoundTrip) {
  ChunkMeta m;
  m.update_ts_ns = 111;
  m.size = 4 << 20;
  m.header_len = 512;
  m.num_files = 100;
  m.num_deleted = 3;
  m.deletion_bitmap = {0xFF, 0x01, 0x80};
  auto back = ChunkMeta::Deserialize(m.Serialize());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->size, m.size);
  EXPECT_EQ(back->header_len, m.header_len);
  EXPECT_EQ(back->num_deleted, 3u);
  EXPECT_EQ(back->deletion_bitmap, m.deletion_bitmap);
}

TEST(CodecTest, DatasetMetaRoundTrip) {
  DatasetMeta m;
  m.update_ts_ns = 5;
  m.num_chunks = 6;
  m.num_files = 7;
  m.total_bytes = 8;
  auto back = DatasetMeta::Deserialize(m.Serialize());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->num_chunks, 6u);
  EXPECT_EQ(back->total_bytes, 8u);
}

TEST(CodecTest, DeserializeGarbageFails) {
  Bytes junk = {1, 2, 3};
  EXPECT_FALSE(FileMeta::Deserialize(junk).ok());
  EXPECT_FALSE(ChunkMeta::Deserialize(junk).ok());
  EXPECT_FALSE(DatasetMeta::Deserialize(junk).ok());
}

TEST(KeySchemaTest, FilesInSameDirShareScanPrefix) {
  std::string k1 = FileKey("ds", "/train/cls0/a.jpg");
  std::string k2 = FileKey("ds", "/train/cls0/b.jpg");
  std::string k3 = FileKey("ds", "/train/cls1/a.jpg");
  std::string prefix = DirFilePrefix("ds", "/train/cls0");
  EXPECT_EQ(k1.compare(0, prefix.size(), prefix), 0);
  EXPECT_EQ(k2.compare(0, prefix.size(), prefix), 0);
  EXPECT_NE(k3.compare(0, prefix.size(), prefix), 0);
}

TEST(KeySchemaTest, DirAndFilePrefixesDisjoint) {
  EXPECT_NE(DirFilePrefix("ds", "/a"), DirSubdirPrefix("ds", "/a"));
}

TEST(KeySchemaTest, ChunkKeysShareDatasetPrefix) {
  ChunkId id = ChunkId::Make(1, 2, 3, 4);
  std::string key = ChunkKey("ds", id);
  std::string prefix = ChunkKeyPrefix("ds");
  EXPECT_EQ(key.compare(0, prefix.size(), prefix), 0);
  EXPECT_EQ(key.substr(prefix.size()), id.Encoded());
}

// The key formulas as they were before each key was built in one buffer:
// "F/" + dataset + "/" + HashHex(dir) + "/f/" + name, with the hash printed
// by snprintf and the path split by copying helpers. Kept as the oracle.
std::string OldHashHex(std::string_view path) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(PathHash(path)));
  return buf;
}

std::string OldParentPath(std::string_view path) {
  size_t pos = path.find_last_of('/');
  if (pos == std::string_view::npos || pos == 0) return "/";
  return std::string(path.substr(0, pos));
}

std::string OldBaseName(std::string_view path) {
  size_t pos = path.find_last_of('/');
  return std::string(pos == std::string_view::npos ? path
                                                   : path.substr(pos + 1));
}

std::string OldDirFilePrefix(std::string_view ds, std::string_view dir) {
  return "F/" + std::string(ds) + "/" + OldHashHex(dir) + "/f/";
}

std::string OldDirSubdirPrefix(std::string_view ds, std::string_view dir) {
  return "F/" + std::string(ds) + "/" + OldHashHex(dir) + "/d/";
}

TEST(KeySchemaTest, KeyBuildersMatchOldFormula) {
  const std::string long_name(200, 'n');
  for (std::string path : {std::string("/"), std::string("/a"),
                           std::string("/a/b/c"), std::string("noslash"),
                           std::string("/a/b/"), "/dir/" + long_name}) {
    for (std::string ds : {"ds", "imagenet-1k"}) {
      EXPECT_EQ(FileKey(ds, path),
                OldDirFilePrefix(ds, OldParentPath(path)) + OldBaseName(path))
          << path;
      EXPECT_EQ(DirMarkerKey(ds, path),
                OldDirSubdirPrefix(ds, OldParentPath(path)) +
                    OldBaseName(path))
          << path;
      EXPECT_EQ(DirFilePrefix(ds, path), OldDirFilePrefix(ds, path)) << path;
      EXPECT_EQ(DirSubdirPrefix(ds, path), OldDirSubdirPrefix(ds, path))
          << path;
    }
  }
}

TEST(KeySchemaTest, GoldenKeys) {
  // PathHash is FNV-1a 64; "/a" hashes to 07d6..., so the zero padding shows.
  EXPECT_EQ(FileKey("ds", "/a/b/c"), "F/ds/363e289cb38ee0cc/f/c");
  EXPECT_EQ(DirMarkerKey("ds", "/a"), "F/ds/af63a24c860189fe/d/a");
  EXPECT_EQ(DirFilePrefix("ds", "/a"), "F/ds/07d66707b49cd92d/f/");
  EXPECT_EQ(DirSubdirPrefix("ds", "/"), "F/ds/af63a24c860189fe/d/");
}

class MetadataServiceTest : public ::testing::Test {
 protected:
  MetadataServiceTest() : cluster_(4), fabric_(cluster_) {
    kv::KvClusterOptions opts;
    opts.nodes = {1, 2};
    kv_ = std::make_unique<kv::KvCluster>(fabric_, opts);
    meta_ = std::make_unique<MetadataService>(*kv_, 0);
  }

  /// Build a chunk of `n` 10-byte files under /train/cls<i%2>/ and register
  /// it from its header; remembers the header length.
  ChunkId AddChunk(uint32_t counter, size_t n) {
    ChunkId id = ChunkId::Make(10 + counter, 1, 1, counter);
    ChunkBuilder builder;
    for (size_t i = 0; i < n; ++i) {
      builder.Add("/train/cls" + std::to_string(i % 2) + "/c" +
                      std::to_string(counter) + "f" + std::to_string(i),
                  Bytes(10, static_cast<uint8_t>(i)));
    }
    Bytes blob = builder.Finish(id, /*create_ts_ns=*/counter);
    Result<ChunkView> view = ChunkView::Parse(blob);
    EXPECT_TRUE(view.ok());
    header_len_ = view->header_len();
    Result<size_t> files =
        meta_->RegisterChunk(clock_, "ds", view.value(), blob.size());
    EXPECT_TRUE(files.ok());
    EXPECT_EQ(files.value(), n);
    return id;
  }

  sim::Cluster cluster_;
  net::Fabric fabric_;
  std::unique_ptr<kv::KvCluster> kv_;
  std::unique_ptr<MetadataService> meta_;
  sim::VirtualClock clock_;
  uint32_t header_len_ = 0;  // of the last chunk AddChunk registered
};

TEST_F(MetadataServiceTest, AddChunkRegistersFilesAndDirs) {
  ChunkId id = AddChunk(0, 6);
  auto fm = meta_->GetFile(clock_, "ds", "/train/cls0/c0f0");
  ASSERT_TRUE(fm.ok()) << fm.status().ToString();
  EXPECT_EQ(fm->chunk, id);
  EXPECT_EQ(fm->length, 10u);

  auto root = meta_->ListDir(clock_, "ds", "/");
  ASSERT_TRUE(root.ok());
  ASSERT_EQ(root->size(), 1u);
  EXPECT_EQ((*root)[0].name, "train");
  EXPECT_TRUE((*root)[0].is_dir);

  auto train = meta_->ListDir(clock_, "ds", "/train");
  ASSERT_TRUE(train.ok());
  EXPECT_EQ(train->size(), 2u);  // cls0, cls1

  auto cls0 = meta_->ListDir(clock_, "ds", "/train/cls0");
  ASSERT_TRUE(cls0.ok());
  EXPECT_EQ(cls0->size(), 3u);  // f0, f2, f4
}

// A header that marks an entry deleted registers the other entries under
// their own indexes and carries the bitmap into the chunk record.
TEST_F(MetadataServiceTest, RegisterChunkSkipsEntriesTheHeaderMarksDeleted) {
  ChunkBuilder builder;
  for (int i = 0; i < 4; ++i) {
    builder.Add("/d/f" + std::to_string(i), Bytes(10, static_cast<uint8_t>(i)));
  }
  ChunkId id = ChunkId::Make(10, 1, 1, 0);
  Bytes blob = builder.Finish(id, /*create_ts_ns=*/7);
  // num_deleted sits at byte 40 and the bitmap at 44 (chunk_format.h); the
  // header CRC covers the header with its header_len field zeroed.
  const uint32_t num_deleted = 1;
  std::memcpy(blob.data() + 40, &num_deleted, 4);
  blob[44] = 1 << 1;
  uint32_t header_len;
  std::memcpy(&header_len, blob.data() + 8, 4);
  std::memset(blob.data() + 8, 0, 4);
  uint32_t crc = Crc32c({blob.data(), header_len - 4u});
  std::memcpy(blob.data() + 8, &header_len, 4);
  std::memcpy(blob.data() + header_len - 4, &crc, 4);

  Result<ChunkView> view = ChunkView::Parse(blob);
  ASSERT_TRUE(view.ok()) << view.status().ToString();
  auto files = meta_->RegisterChunk(clock_, "ds", view.value(), blob.size());
  ASSERT_TRUE(files.ok());
  EXPECT_EQ(files.value(), 3u);
  EXPECT_TRUE(meta_->GetFile(clock_, "ds", "/d/f1").status().IsNotFound());
  auto f2 = meta_->GetFile(clock_, "ds", "/d/f2");
  ASSERT_TRUE(f2.ok());
  EXPECT_EQ(f2->index_in_chunk, 2u);
  auto cm = meta_->GetChunk(clock_, "ds", id);
  ASSERT_TRUE(cm.ok());
  EXPECT_EQ(cm->update_ts_ns, 7u);
  EXPECT_EQ(cm->size, blob.size());
  EXPECT_EQ(cm->num_files, 4u);
  EXPECT_EQ(cm->num_deleted, 1u);
  EXPECT_EQ(cm->deletion_bitmap, std::vector<uint8_t>{1 << 1});
}

TEST_F(MetadataServiceTest, GetChunkReturnsRecord) {
  ChunkId id = AddChunk(0, 4);
  auto cm = meta_->GetChunk(clock_, "ds", id);
  ASSERT_TRUE(cm.ok());
  EXPECT_EQ(cm->num_files, 4u);
  EXPECT_EQ(cm->header_len, header_len_);
}

TEST_F(MetadataServiceTest, ListChunksInWriteOrder) {
  std::vector<ChunkId> written;
  for (uint32_t i = 0; i < 5; ++i) written.push_back(AddChunk(i, 2));
  auto chunks = meta_->ListChunks(clock_, "ds");
  ASSERT_TRUE(chunks.ok());
  EXPECT_EQ(chunks.value(), written);
}

TEST_F(MetadataServiceTest, DeleteFileFlipsBitmapAndRemovesKey) {
  ChunkId id = AddChunk(0, 10);
  ASSERT_TRUE(meta_->DeleteFile(clock_, "ds", "/train/cls1/c0f3").ok());
  EXPECT_TRUE(meta_->GetFile(clock_, "ds", "/train/cls1/c0f3")
                  .status().IsNotFound());
  auto cm = meta_->GetChunk(clock_, "ds", id);
  ASSERT_TRUE(cm.ok());
  EXPECT_EQ(cm->num_deleted, 1u);
  EXPECT_EQ(cm->deletion_bitmap[0], 1 << 3);
  // Double delete fails.
  EXPECT_TRUE(meta_->DeleteFile(clock_, "ds", "/train/cls1/c0f3")
                  .IsNotFound());
}

TEST_F(MetadataServiceTest, DatasetRecordRoundTrip) {
  DatasetMeta dm;
  dm.update_ts_ns = 42;
  dm.num_chunks = 2;
  ASSERT_TRUE(meta_->PutDataset(clock_, "ds", dm).ok());
  auto got = meta_->GetDataset(clock_, "ds");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->update_ts_ns, 42u);
}

TEST_F(MetadataServiceTest, DeleteDatasetPurgesNamespace) {
  AddChunk(0, 4);
  AddChunk(1, 4);
  DatasetMeta dm;
  ASSERT_TRUE(meta_->PutDataset(clock_, "ds", dm).ok());
  auto chunks = meta_->DeleteDataset(clock_, "ds");
  ASSERT_TRUE(chunks.ok());
  EXPECT_EQ(chunks->size(), 2u);
  EXPECT_EQ(kv_->TotalKeys(), 0u);
}

TEST_F(MetadataServiceTest, DatasetsAreIsolated) {
  AddChunk(0, 2);
  EXPECT_TRUE(meta_->GetFile(clock_, "other", "/train/cls0/c0f0")
                  .status().IsNotFound());
  auto ls = meta_->ListDir(clock_, "other", "/");
  ASSERT_TRUE(ls.ok());
  EXPECT_TRUE(ls->empty());
}

}  // namespace
}  // namespace diesel::core
