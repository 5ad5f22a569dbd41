#include "core/chunk_format.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>

#include "common/crc32.h"
#include "common/rng.h"

namespace diesel::core {
namespace {

Bytes RandomContent(Rng& rng, size_t n) {
  Bytes out(n);
  for (auto& b : out) b = static_cast<uint8_t>(rng.Next());
  return out;
}

ChunkId TestId() { return ChunkId::Make(100, 1, 2, 3); }

TEST(ChunkBuilderTest, TracksFullness) {
  ChunkBuilder b(/*target=*/100);
  EXPECT_TRUE(b.Empty());
  EXPECT_FALSE(b.Full());
  Rng rng(1);
  b.Add("/f1", RandomContent(rng, 60));
  EXPECT_FALSE(b.Full());
  b.Add("/f2", RandomContent(rng, 60));
  EXPECT_TRUE(b.Full());
  EXPECT_EQ(b.num_files(), 2u);
  EXPECT_EQ(b.payload_bytes(), 120u);
}

TEST(ChunkBuilderTest, FinishResetsBuilder) {
  ChunkBuilder b(100);
  Rng rng(2);
  b.Add("/f", RandomContent(rng, 10));
  Bytes chunk = b.Finish(TestId(), 999);
  EXPECT_FALSE(chunk.empty());
  EXPECT_TRUE(b.Empty());
  EXPECT_EQ(b.payload_bytes(), 0u);
}

TEST(ChunkFormatTest, RoundTripPreservesFilesAndMetadata) {
  ChunkBuilder b(0);
  Rng rng(3);
  std::vector<Bytes> contents;
  for (int i = 0; i < 10; ++i) {
    contents.push_back(RandomContent(rng, 100 + static_cast<size_t>(i) * 37));
    b.Add("/dir/file" + std::to_string(i), contents.back());
  }
  Bytes chunk = b.Finish(TestId(), 12345);

  auto view = ChunkView::Parse(chunk);
  ASSERT_TRUE(view.ok()) << view.status().ToString();
  EXPECT_EQ(view->id(), TestId());
  EXPECT_EQ(view->create_ts_ns(), 12345u);
  ASSERT_EQ(view->entries().size(), 10u);
  EXPECT_EQ(view->num_deleted(), 0u);
  for (size_t i = 0; i < 10; ++i) {
    EXPECT_EQ(view->entries()[i].name, "/dir/file" + std::to_string(i));
    EXPECT_FALSE(view->IsDeleted(i));
    auto content = view->ExtractFile(i);
    ASSERT_TRUE(content.ok());
    EXPECT_EQ(content.value(), contents[i]);
  }
}

TEST(ChunkFormatTest, OffsetsAreContiguous) {
  ChunkBuilder b(0);
  Rng rng(4);
  b.Add("/a", RandomContent(rng, 11));
  b.Add("/b", RandomContent(rng, 13));
  b.Add("/c", RandomContent(rng, 17));
  Bytes chunk = b.Finish(TestId(), 0);
  auto view = ChunkView::Parse(chunk);
  ASSERT_TRUE(view.ok());
  EXPECT_EQ(view->entries()[0].offset, 0u);
  EXPECT_EQ(view->entries()[1].offset, 11u);
  EXPECT_EQ(view->entries()[2].offset, 24u);
}

TEST(ChunkFormatTest, FindEntryByName) {
  ChunkBuilder b(0);
  Rng rng(5);
  b.Add("/x/one", RandomContent(rng, 8));
  b.Add("/x/two", RandomContent(rng, 8));
  Bytes chunk = b.Finish(TestId(), 0);
  auto view = ChunkView::Parse(chunk);
  ASSERT_TRUE(view.ok());
  ASSERT_NE(view->FindEntry("/x/two"), nullptr);
  EXPECT_EQ(view->FindEntry("/x/two")->offset, 8u);
  EXPECT_EQ(view->FindEntry("/x/zzz"), nullptr);
}

TEST(ChunkFormatTest, FindEntryIndexedLookupCoversAllNames) {
  // The lazily built name index must agree with a straight linear scan for
  // every file, probed in an order unrelated to insertion order.
  ChunkBuilder b(0);
  Rng rng(11);
  constexpr size_t kFiles = 257;  // odd, not a power of two
  for (size_t i = 0; i < kFiles; ++i) {
    // Names deliberately NOT in lexicographic insert order.
    b.Add("/t/cls" + std::to_string((i * 7) % 10) + "/img" +
              std::to_string((i * 131) % kFiles),
          RandomContent(rng, 16));
  }
  Bytes chunk = b.Finish(TestId(), 1);
  auto view = ChunkView::Parse(chunk);
  ASSERT_TRUE(view.ok());
  for (const ChunkFileEntry& e : view->entries()) {
    const ChunkFileEntry* hit = view->FindEntry(e.name);
    ASSERT_NE(hit, nullptr) << e.name;
    EXPECT_EQ(hit->offset, e.offset);
    EXPECT_EQ(hit->length, e.length);
    EXPECT_EQ(hit->crc, e.crc);
  }
  EXPECT_EQ(view->FindEntry("/t/cls0/never-written"), nullptr);
  EXPECT_EQ(view->FindEntry(""), nullptr);
}

TEST(ChunkBuilderTest, SerializedHeaderBytesIsExact) {
  ChunkBuilder b(0);
  Rng rng(12);
  b.Add("/a", RandomContent(rng, 5));
  b.Add("/some/longer/name.jpg", RandomContent(rng, 7));
  b.Add("/x", RandomContent(rng, 3));
  uint64_t predicted = b.SerializedHeaderBytes();
  uint64_t payload = b.payload_bytes();
  Bytes chunk = b.Finish(TestId(), 42);
  auto view = ChunkView::Parse(chunk);
  ASSERT_TRUE(view.ok());
  EXPECT_EQ(view->header_len(), predicted);
  EXPECT_EQ(chunk.size(), predicted + payload);
}

// The builder as it was before Finish prepended the header in place: the
// payload grows to the target (doubling past it) and Finish copies header
// and payload into a second buffer. Kept as the byte-level oracle.
class ReferenceChunkBuilder {
 public:
  explicit ReferenceChunkBuilder(uint64_t target) : target_(target) {}

  void Add(std::string name, BytesView content) {
    size_t needed = payload_.size() + content.size();
    if (payload_.capacity() < needed) {
      payload_.reserve(std::max({needed, static_cast<size_t>(target_),
                                 payload_.capacity() * 2}));
    }
    entries_.push_back({std::move(name), payload_.size(), content.size(),
                        Crc32c(content)});
    payload_.insert(payload_.end(), content.begin(), content.end());
  }

  bool Full() const { return payload_.size() >= target_; }

  Bytes Finish(const ChunkId& id, uint64_t create_ts_ns) {
    BinaryWriter w;
    w.PutU32(kChunkMagic);
    w.PutU32(kChunkVersion);
    size_t header_len_pos = w.size();
    w.PutU32(0);
    w.PutRaw(id.bytes().data(), ChunkId::kSize);
    w.PutU64(create_ts_ns);
    w.PutU32(static_cast<uint32_t>(entries_.size()));
    w.PutU32(0);
    for (size_t i = 0; i < (entries_.size() + 7) / 8; ++i) w.PutU8(0);
    for (const ChunkFileEntry& e : entries_) {
      w.PutString(e.name);
      w.PutU64(e.offset);
      w.PutU64(e.length);
      w.PutU32(e.crc);
    }
    uint32_t crc = Crc32c({w.data().data(), w.size()});
    w.PutU32(crc);
    w.PatchU32(header_len_pos, static_cast<uint32_t>(w.size()));
    w.PutRaw(payload_.data(), payload_.size());
    entries_.clear();
    payload_.clear();
    return std::move(w).Take();
  }

 private:
  uint64_t target_;
  std::vector<ChunkFileEntry> entries_;
  Bytes payload_;
};

struct TestFile {
  std::string name;
  Bytes content;
};

// Feed `files` to both builders, closing a chunk whenever the reference
// reports Full (as DieselClient does) and once more at the end. Every
// chunk must be byte-identical and parse back to the files it holds.
void ExpectMatchesReference(uint64_t target, const std::vector<TestFile>& files,
                            size_t expected_chunks) {
  ChunkBuilder b(target);
  ReferenceChunkBuilder ref(target);
  std::vector<Bytes> got, want;
  std::vector<std::vector<const TestFile*>> members(1);
  uint64_t ts = 1000;
  auto close = [&] {
    ChunkId id = ChunkId::Make(7, 1, 2, static_cast<uint32_t>(got.size()));
    got.push_back(b.Finish(id, ts));
    want.push_back(ref.Finish(id, ts));
    ++ts;
    EXPECT_TRUE(b.Empty());
    EXPECT_EQ(b.payload_bytes(), 0u);
  };
  for (const TestFile& f : files) {
    b.Add(f.name, f.content);
    ref.Add(f.name, f.content);
    members.back().push_back(&f);
    ASSERT_EQ(b.Full(), ref.Full());
    if (ref.Full()) {
      close();
      members.emplace_back();
    }
  }
  if (!members.back().empty()) close();
  ASSERT_EQ(got.size(), expected_chunks);
  for (size_t c = 0; c < got.size(); ++c) {
    EXPECT_EQ(got[c], want[c]) << "chunk " << c;
    // Exact-size blob: shared into the store, it pins no slack.
    EXPECT_EQ(got[c].capacity(), got[c].size()) << "chunk " << c;
    auto view = ChunkView::Parse(got[c]);
    ASSERT_TRUE(view.ok()) << view.status().ToString();
    ASSERT_EQ(view->entries().size(), members[c].size());
    for (size_t i = 0; i < members[c].size(); ++i) {
      EXPECT_EQ(view->entries()[i].name, members[c][i]->name);
      auto content = view->ExtractFile(i);
      ASSERT_TRUE(content.ok());
      EXPECT_EQ(content.value(), members[c][i]->content);
    }
  }
}

TEST(ChunkBuilderEquivalenceTest, LastFileCrossesTarget) {
  Rng rng(21);
  std::vector<TestFile> files;
  for (int i = 0; i < 7; ++i) {
    files.push_back({"/d/f" + std::to_string(i), RandomContent(rng, 300)});
  }
  // 2000-byte target: the seventh 300-byte file crosses it.
  ExpectMatchesReference(2000, files, 1);
}

TEST(ChunkBuilderEquivalenceTest, FileLargerThanTarget) {
  Rng rng(22);
  std::vector<TestFile> files{{"/small", RandomContent(rng, 100)},
                              {"/huge", RandomContent(rng, 5000)}};
  ExpectMatchesReference(1000, files, 1);
  ExpectMatchesReference(1000, {{"/alone", RandomContent(rng, 9000)}}, 1);
}

TEST(ChunkBuilderEquivalenceTest, BuilderReusedForThreeChunks) {
  Rng rng(23);
  std::vector<TestFile> files;
  for (int i = 0; i < 40; ++i) {
    files.push_back({"/cls" + std::to_string(i % 3) + "/x" + std::to_string(i),
                     RandomContent(rng, 100 + rng.Uniform(200))});
  }
  // ~8 KB of payload over a 3000-byte target: two full chunks plus a tail.
  ExpectMatchesReference(3000, files, 3);
}

TEST(ChunkBuilderEquivalenceTest, ZeroLengthFiles) {
  Rng rng(24);
  std::vector<TestFile> files{{"/empty0", {}},
                              {"/mid", RandomContent(rng, 50)},
                              {"/empty1", {}},
                              {"/empty2", {}}};
  ExpectMatchesReference(1000, files, 1);
  ExpectMatchesReference(0, {{"/only-empty", {}}}, 1);
}

TEST(ChunkFormatTest, EmptyChunkIsValid) {
  ChunkBuilder b(0);
  Bytes chunk = b.Finish(TestId(), 1);
  auto view = ChunkView::Parse(chunk);
  ASSERT_TRUE(view.ok());
  EXPECT_TRUE(view->entries().empty());
}

TEST(ChunkFormatTest, HeaderOnlyParseServesRecovery) {
  ChunkBuilder b(0);
  Rng rng(6);
  b.Add("/r/f1", RandomContent(rng, 1000));
  b.Add("/r/f2", RandomContent(rng, 2000));
  Bytes chunk = b.Finish(TestId(), 77);

  auto hl = ChunkView::PeekHeaderLen({chunk.data(), 12});
  ASSERT_TRUE(hl.ok());
  ASSERT_LT(hl.value(), chunk.size());

  auto view = ChunkView::ParseHeaderOnly({chunk.data(), hl.value()});
  ASSERT_TRUE(view.ok()) << view.status().ToString();
  EXPECT_EQ(view->entries().size(), 2u);
  EXPECT_EQ(view->entries()[1].length, 2000u);
  // Payload access must be refused on header-only views.
  EXPECT_EQ(view->ExtractFile(0).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(ChunkFormatTest, CorruptMagicRejected) {
  ChunkBuilder b(0);
  Bytes chunk = b.Finish(TestId(), 0);
  chunk[0] ^= 0xFF;
  EXPECT_TRUE(ChunkView::Parse(chunk).status().IsCorruption());
  EXPECT_TRUE(ChunkView::PeekHeaderLen({chunk.data(), 12})
                  .status().IsCorruption());
}

TEST(ChunkFormatTest, CorruptHeaderByteFailsChecksum) {
  ChunkBuilder b(0);
  Rng rng(7);
  b.Add("/c/f", RandomContent(rng, 64));
  Bytes chunk = b.Finish(TestId(), 0);
  // Flip a byte inside the file table (past the fixed prefix).
  chunk[40] ^= 0x01;
  EXPECT_TRUE(ChunkView::Parse(chunk).status().IsCorruption());
}

TEST(ChunkFormatTest, CorruptPayloadCaughtByFileCrc) {
  ChunkBuilder b(0);
  Rng rng(8);
  b.Add("/c/f", RandomContent(rng, 64));
  Bytes chunk = b.Finish(TestId(), 0);
  auto clean = ChunkView::Parse(chunk);
  ASSERT_TRUE(clean.ok());
  chunk[chunk.size() - 1] ^= 0xFF;  // payload byte
  auto view = ChunkView::Parse(chunk);
  ASSERT_TRUE(view.ok());  // header is intact
  EXPECT_TRUE(view->ExtractFile(0).status().IsCorruption());
}

// Rewrite the only file entry's range in a one-file chunk whose file is
// named `name`, then reseal the header CRC the way the builder computes it
// (over the header with the header_len field zeroed).
void ResealOnlyEntryRange(Bytes& chunk, const std::string& name,
                          uint64_t offset, uint64_t length) {
  // magic, version, header_len, id, create_ts, num_files, num_deleted: 44
  // bytes; a one-byte deletion bitmap; the u32-prefixed name.
  const size_t at = 44 + 1 + 4 + name.size();
  std::memcpy(chunk.data() + at, &offset, 8);
  std::memcpy(chunk.data() + at + 8, &length, 8);
  uint32_t header_len;
  std::memcpy(&header_len, chunk.data() + 8, 4);
  std::memset(chunk.data() + 8, 0, 4);
  uint32_t crc = Crc32c({chunk.data(), header_len - 4u});
  std::memcpy(chunk.data() + 8, &header_len, 4);
  std::memcpy(chunk.data() + header_len - 4, &crc, 4);
}

// offset + length wraps around to 8, inside the 16-byte payload, so an
// additive bounds check accepts a range that starts far past the chunk.
TEST(ChunkFormatTest, ResealedWrappingFileRangeRejected) {
  ChunkBuilder b(0);
  Rng rng(11);
  b.Add("/w", RandomContent(rng, 16));
  Bytes chunk = b.Finish(TestId(), 0);
  ResealOnlyEntryRange(chunk, "/w", 0, 16);  // resealing alone is valid
  ASSERT_TRUE(ChunkView::Parse(chunk).ok());
  ResealOnlyEntryRange(chunk, "/w", UINT64_MAX - 7, 16);
  auto view = ChunkView::Parse(chunk);
  EXPECT_TRUE(view.status().IsCorruption()) << view.status().ToString();
}

TEST(ChunkFormatTest, TruncatedChunkRejected) {
  ChunkBuilder b(0);
  Rng rng(9);
  b.Add("/t/f", RandomContent(rng, 256));
  Bytes chunk = b.Finish(TestId(), 0);
  Bytes truncated(chunk.begin(), chunk.begin() + 20);
  EXPECT_FALSE(ChunkView::Parse(truncated).ok());
}

TEST(ChunkFormatTest, ExtractFileIndexOutOfRange) {
  ChunkBuilder b(0);
  Rng rng(10);
  b.Add("/f", RandomContent(rng, 10));
  Bytes chunk = b.Finish(TestId(), 0);
  auto view = ChunkView::Parse(chunk);
  ASSERT_TRUE(view.ok());
  EXPECT_EQ(view->ExtractFile(5).status().code(), StatusCode::kOutOfRange);
}

TEST(CompactChunkTest, DropsDeletedFiles) {
  ChunkBuilder b(0);
  Rng rng(11);
  std::vector<Bytes> contents;
  for (int i = 0; i < 5; ++i) {
    contents.push_back(RandomContent(rng, 50));
    b.Add("/p/f" + std::to_string(i), contents.back());
  }
  Bytes chunk = b.Finish(TestId(), 1);

  std::vector<uint8_t> bitmap{(1 << 1) | (1 << 3)};  // delete f1, f3
  ChunkId new_id = ChunkId::Make(100, 1, 2, 4);
  auto compacted = CompactChunk(chunk, bitmap, new_id, 2);
  ASSERT_TRUE(compacted.ok()) << compacted.status().ToString();

  auto view = ChunkView::Parse(compacted.value());
  ASSERT_TRUE(view.ok());
  ASSERT_EQ(view->entries().size(), 3u);
  EXPECT_EQ(view->entries()[0].name, "/p/f0");
  EXPECT_EQ(view->entries()[1].name, "/p/f2");
  EXPECT_EQ(view->entries()[2].name, "/p/f4");
  EXPECT_EQ(view->ExtractFile(1).value(), contents[2]);
  EXPECT_LT(compacted->size(), chunk.size());
}

TEST(CompactChunkTest, RejectsShortBitmap) {
  ChunkBuilder b(0);
  Rng rng(12);
  for (int i = 0; i < 9; ++i) b.Add("/f" + std::to_string(i),
                                    RandomContent(rng, 10));
  Bytes chunk = b.Finish(TestId(), 0);
  // 9 files need 2 bitmap bytes.
  EXPECT_FALSE(CompactChunk(chunk, {0}, TestId(), 0).ok());
}

TEST(ChunkFormatTest, ParseBoundsFileCountByHeaderBytes) {
  // 4096 bitmap bytes back a count of 32768 entries at 8 per byte, but the
  // header holds no entry bytes at all: the count must be refused before
  // any table is reserved for it.
  constexpr uint32_t kNumFiles = 8 * 4096;
  BinaryWriter w;
  w.PutU32(kChunkMagic);
  w.PutU32(kChunkVersion);
  const size_t header_len_at = w.size();
  w.PutU32(0);
  w.PutRaw(TestId().bytes().data(), ChunkId::kSize);
  w.PutU64(1);
  w.PutU32(kNumFiles);
  w.PutU32(0);
  w.PutRaw(Bytes(kNumFiles / 8, 0));
  w.PutU32(0);  // header crc
  w.PatchU32(header_len_at, static_cast<uint32_t>(w.size()));
  Result<ChunkView> view = ChunkView::ParseHeaderOnly(w.data());
  ASSERT_TRUE(view.status().IsCorruption());
  EXPECT_NE(view.status().message().find("file count"), std::string::npos)
      << view.status().ToString();
}

}  // namespace
}  // namespace diesel::core
