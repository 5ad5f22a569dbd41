#include "kv/shard.h"

#include <gtest/gtest.h>

#include "sim/calibration.h"

namespace diesel::kv {
namespace {

Shard MakeShard() { return Shard(0, sim::RedisShardSpec("t")); }

/// The visiting scan, collected into owned entries.
Result<std::vector<ScanEntry>> Collect(const Shard& s, std::string_view prefix,
                                       size_t limit = 0) {
  std::vector<ScanEntry> out;
  DIESEL_RETURN_IF_ERROR(
      s.Scan(prefix, limit, [&](std::string_view k, std::string_view v) {
        out.push_back({std::string(k), std::string(v)});
      }));
  return out;
}

TEST(ShardTest, PutGetDelete) {
  Shard s = MakeShard();
  EXPECT_TRUE(s.Put("k", "v").ok());
  EXPECT_EQ(s.Get("k").value(), "v");
  EXPECT_TRUE(s.Delete("k").ok());
  EXPECT_TRUE(s.Get("k").status().IsNotFound());
}

TEST(ShardTest, ScanPrefixOrderedAndBounded) {
  Shard s = MakeShard();
  ASSERT_TRUE(s.Put("a/2", "2").ok());
  ASSERT_TRUE(s.Put("a/1", "1").ok());
  ASSERT_TRUE(s.Put("a/3", "3").ok());
  ASSERT_TRUE(s.Put("b/1", "x").ok());
  auto scan = Collect(s, "a/");
  ASSERT_TRUE(scan.ok());
  ASSERT_EQ(scan->size(), 3u);
  EXPECT_EQ((*scan)[0].key, "a/1");
  EXPECT_EQ((*scan)[2].key, "a/3");

  auto limited = Collect(s, "a/", 2);
  ASSERT_TRUE(limited.ok());
  EXPECT_EQ(limited->size(), 2u);
}

TEST(ShardTest, ScanPrefixEndingInFFStopsAtItsRange) {
  // The scan ends at the prefix's successor: "a\xff" -> "b", "\xff" -> end.
  Shard s = MakeShard();
  for (const char* k : {"a\xfe", "a\xff", "a\xff\x01", "a\xff\xff", "b",
                        "\xff", "\xff\xff"}) {
    ASSERT_TRUE(s.Put(k, "v").ok());
  }
  auto a = Collect(s, "a\xff");
  ASSERT_TRUE(a.ok());
  ASSERT_EQ(a->size(), 3u);
  EXPECT_EQ((*a)[2].key, "a\xff\xff");
  auto ff = Collect(s, "\xff");
  ASSERT_TRUE(ff.ok());
  EXPECT_EQ(ff->size(), 2u);
}

TEST(ShardTest, ScanEmptyPrefixReturnsAll) {
  Shard s = MakeShard();
  ASSERT_TRUE(s.Put("x", "1").ok());
  ASSERT_TRUE(s.Put("y", "2").ok());
  auto scan = Collect(s, "");
  ASSERT_TRUE(scan.ok());
  EXPECT_EQ(scan->size(), 2u);
}

TEST(ShardTest, FailClearsDataAndBlocksOps) {
  Shard s = MakeShard();
  ASSERT_TRUE(s.Put("k", "v").ok());
  s.Fail();
  EXPECT_FALSE(s.up());
  EXPECT_TRUE(s.Get("k").status().IsUnavailable());
  EXPECT_TRUE(s.Put("k", "v").IsUnavailable());
  EXPECT_TRUE(Collect(s, "").status().IsUnavailable());
  s.Restart();
  EXPECT_TRUE(s.up());
  EXPECT_EQ(s.NumKeys(), 0u);  // in-memory store: contents lost
  EXPECT_TRUE(s.Get("k").status().IsNotFound());
}

TEST(ShardTest, PutBatchOnDownShardLeavesBatchIntact) {
  Shard s = MakeShard();
  ASSERT_TRUE(s.Put("k1", "old").ok());
  std::vector<std::pair<std::string, std::string>> batch{
      {"k1", "new"}, {"k2", std::string(100, 'v')}, {"k3", ""}};
  const auto copy = batch;
  s.Fail();
  EXPECT_TRUE(s.PutBatch(batch).IsUnavailable());
  EXPECT_EQ(batch, copy);  // nothing moved out: the caller can retry

  s.Restart();
  ASSERT_TRUE(s.PutBatch(batch).ok());
  EXPECT_EQ(s.NumKeys(), 3u);
  for (const auto& [k, v] : copy) EXPECT_EQ(s.Get(k).value(), v) << k;
}

TEST(ShardTest, NumKeysTracksMutations) {
  Shard s = MakeShard();
  EXPECT_EQ(s.NumKeys(), 0u);
  ASSERT_TRUE(s.Put("a", "1").ok());
  ASSERT_TRUE(s.Put("a", "2").ok());
  ASSERT_TRUE(s.Put("b", "1").ok());
  EXPECT_EQ(s.NumKeys(), 2u);
  ASSERT_TRUE(s.Delete("a").ok());
  EXPECT_EQ(s.NumKeys(), 1u);
}

}  // namespace
}  // namespace diesel::kv
