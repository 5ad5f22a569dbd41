#include "kv/shard.h"

#include <gtest/gtest.h>

#include "sim/calibration.h"

namespace diesel::kv {
namespace {

Shard MakeShard() { return Shard(0, sim::RedisShardSpec("t")); }

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
  auto scan = s.Scan("a/");
  ASSERT_TRUE(scan.ok());
  ASSERT_EQ(scan->size(), 3u);
  EXPECT_EQ((*scan)[0].key, "a/1");
  EXPECT_EQ((*scan)[2].key, "a/3");

  auto limited = s.Scan("a/", 2);
  ASSERT_TRUE(limited.ok());
  EXPECT_EQ(limited->size(), 2u);
}

TEST(ShardTest, ScanEmptyPrefixReturnsAll) {
  Shard s = MakeShard();
  ASSERT_TRUE(s.Put("x", "1").ok());
  ASSERT_TRUE(s.Put("y", "2").ok());
  auto scan = s.Scan("");
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
  EXPECT_TRUE(s.Scan("").status().IsUnavailable());
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
