#include "core/snapshot.h"

#include <gtest/gtest.h>

#include <memory>

namespace diesel::core {
namespace {

MetadataSnapshot MakeSnapshot(size_t num_chunks, size_t files_per_chunk) {
  std::vector<ChunkId> chunks;
  std::vector<FileMeta> files;
  for (size_t c = 0; c < num_chunks; ++c) {
    ChunkId id = ChunkId::Make(100 + static_cast<uint32_t>(c), 1, 1,
                               static_cast<uint32_t>(c));
    chunks.push_back(id);
    for (size_t f = 0; f < files_per_chunk; ++f) {
      FileMeta m;
      m.chunk = id;
      m.offset = f * 100;
      m.length = 100;
      m.crc = static_cast<uint32_t>(c * 1000 + f);
      m.index_in_chunk = static_cast<uint32_t>(f);
      m.full_name = "/ds/train/cls" + std::to_string(f % 3) + "/c" +
                    std::to_string(c) + "f" + std::to_string(f);
      files.push_back(std::move(m));
    }
  }
  return MetadataSnapshot::Create("ds", 777, std::move(chunks),
                                  std::move(files));
}

TEST(SnapshotTest, LookupFindsEveryFile) {
  MetadataSnapshot snap = MakeSnapshot(4, 5);
  EXPECT_EQ(snap.num_files(), 20u);
  for (const FileMeta& f : snap.files()) {
    const FileMeta* found = snap.Lookup(f.full_name);
    ASSERT_NE(found, nullptr) << f.full_name;
    EXPECT_EQ(found->offset, f.offset);
    EXPECT_EQ(found->chunk, f.chunk);
  }
  EXPECT_EQ(snap.Lookup("/ds/absent"), nullptr);
}

TEST(SnapshotTest, HierarchyRebuiltFromFullNames) {
  MetadataSnapshot snap = MakeSnapshot(2, 6);
  auto root = snap.ListDir("/");
  ASSERT_TRUE(root.ok());
  ASSERT_EQ(root->size(), 1u);
  EXPECT_EQ((*root)[0].name, "ds");
  EXPECT_TRUE((*root)[0].is_dir);

  auto train = snap.ListDir("/ds/train");
  ASSERT_TRUE(train.ok());
  EXPECT_EQ(train->size(), 3u);  // cls0..cls2
  EXPECT_TRUE(snap.HasDir("/ds/train/cls1"));
  EXPECT_FALSE(snap.HasDir("/ds/test"));
  EXPECT_TRUE(snap.ListDir("/ds/test").status().IsNotFound());
}

TEST(SnapshotTest, ListingOrderIsDirsFirstSorted) {
  std::vector<ChunkId> chunks{ChunkId::Make(1, 1, 1, 1)};
  std::vector<FileMeta> files;
  for (const char* name : {"/d/z.txt", "/d/a.txt", "/d/sub/x", "/d/b.txt"}) {
    FileMeta m;
    m.chunk = chunks[0];
    m.full_name = name;
    files.push_back(std::move(m));
  }
  auto snap = MetadataSnapshot::Create("d", 1, chunks, files);
  auto ls = snap.ListDir("/d");
  ASSERT_TRUE(ls.ok());
  ASSERT_EQ(ls->size(), 4u);
  EXPECT_EQ((*ls)[0].name, "sub");
  EXPECT_TRUE((*ls)[0].is_dir);
  EXPECT_EQ((*ls)[1].name, "a.txt");
  EXPECT_EQ((*ls)[2].name, "b.txt");
  EXPECT_EQ((*ls)[3].name, "z.txt");
}

TEST(SnapshotTest, SerializeDeserializePreservesEverything) {
  MetadataSnapshot snap = MakeSnapshot(3, 4);
  Bytes data = snap.Serialize();
  auto back = MetadataSnapshot::Deserialize(data);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->dataset(), "ds");
  EXPECT_EQ(back->update_ts_ns(), 777u);
  EXPECT_EQ(back->chunks(), snap.chunks());
  ASSERT_EQ(back->num_files(), snap.num_files());
  for (const FileMeta& f : snap.files()) {
    const FileMeta* found = back->Lookup(f.full_name);
    ASSERT_NE(found, nullptr);
    EXPECT_EQ(found->length, f.length);
    EXPECT_EQ(found->crc, f.crc);
    EXPECT_EQ(found->index_in_chunk, f.index_in_chunk);
  }
}

TEST(SnapshotTest, DeserializeRejectsCorruption) {
  MetadataSnapshot snap = MakeSnapshot(1, 2);
  Bytes data = snap.Serialize();
  Bytes bad_magic = data;
  bad_magic[0] ^= 0xFF;
  EXPECT_FALSE(MetadataSnapshot::Deserialize(bad_magic).ok());
  Bytes truncated(data.begin(), data.begin() + data.size() / 2);
  EXPECT_FALSE(MetadataSnapshot::Deserialize(truncated).ok());
  Bytes trailing = data;
  trailing.push_back(0);
  EXPECT_FALSE(MetadataSnapshot::Deserialize(trailing).ok());
}

TEST(SnapshotTest, DeserializeBoundsCountsByRemainingBytes) {
  // magic, version, "", ts, then a count no remaining bytes can back: must
  // be Corruption before anything is sized from it.
  auto header = [] {
    BinaryWriter w;
    w.PutU32(0x50414E53);
    w.PutU32(1);
    w.PutString("");
    w.PutU64(0);
    return w;
  };
  BinaryWriter chunks = header();
  chunks.PutU32(0xFFFFFFFF);  // num_chunks
  chunks.PutU8(0);
  ASSERT_EQ(chunks.size(), 25u);
  EXPECT_TRUE(MetadataSnapshot::Deserialize(chunks.data())
                  .status().IsCorruption());

  BinaryWriter files = header();
  files.PutU32(0);           // num_chunks
  files.PutU32(0xFFFFFFFF);  // num_files
  files.PutRaw(Bytes(31, 0));
  EXPECT_TRUE(MetadataSnapshot::Deserialize(files.data())
                  .status().IsCorruption());
}

TEST(SnapshotTest, CopyIndexesItsOwnNames) {
  auto original = std::make_unique<MetadataSnapshot>(MakeSnapshot(2, 3));
  MetadataSnapshot copy = *original;
  const std::string path = original->files()[4].full_name;
  original.reset();
  const FileMeta* found = copy.Lookup(path);
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->full_name, path);
  auto ls = copy.ListDir("/ds/train");
  ASSERT_TRUE(ls.ok());
  EXPECT_EQ(ls->size(), 3u);
  EXPECT_EQ((*ls)[0].name, "cls0");
}

TEST(SnapshotTest, StalenessCheck) {
  MetadataSnapshot snap = MakeSnapshot(1, 1);
  DatasetMeta same;
  same.update_ts_ns = 777;
  DatasetMeta newer;
  newer.update_ts_ns = 778;
  EXPECT_TRUE(snap.IsUpToDate(same));
  EXPECT_FALSE(snap.IsUpToDate(newer));
}

TEST(SnapshotTest, ChunkIndexAndFilesOfChunk) {
  MetadataSnapshot snap = MakeSnapshot(3, 4);
  for (size_t c = 0; c < 3; ++c) {
    size_t idx = snap.ChunkIndex(snap.chunks()[c]);
    EXPECT_EQ(idx, c);
    const auto& files = snap.FilesOfChunk(idx);
    EXPECT_EQ(files.size(), 4u);
    // Offset order within the chunk.
    for (size_t i = 1; i < files.size(); ++i) {
      EXPECT_LT(snap.files()[files[i - 1]].offset,
                snap.files()[files[i]].offset);
    }
  }
  EXPECT_EQ(snap.ChunkIndex(ChunkId::Make(9, 9, 9, 9)),
            static_cast<size_t>(-1));
  EXPECT_TRUE(snap.FilesOfChunk(99).empty());
}

TEST(SnapshotTest, SnapshotSizeIsCompact) {
  // The paper stresses small snapshots: < ~64 bytes/file for short names.
  MetadataSnapshot snap = MakeSnapshot(10, 100);
  EXPECT_LT(snap.Serialize().size(), snap.num_files() * 80);
}

TEST(SnapshotTest, EmptySnapshotWorks) {
  auto snap = MetadataSnapshot::Create("empty", 1, {}, {});
  EXPECT_EQ(snap.num_files(), 0u);
  auto back = MetadataSnapshot::Deserialize(snap.Serialize());
  ASSERT_TRUE(back.ok());
  auto ls = back->ListDir("/");
  ASSERT_TRUE(ls.ok());
  EXPECT_TRUE(ls->empty());
}

}  // namespace
}  // namespace diesel::core
