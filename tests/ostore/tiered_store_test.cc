#include "ostore/tiered_store.h"

#include <gtest/gtest.h>

#include <cstdint>

#include "ostore/mem_store.h"

namespace diesel::ostore {
namespace {

class TieredStoreTest : public ::testing::Test {
 protected:
  TieredStoreTest() : tiered_(&fast_, &slow_, /*capacity=*/0) {}
  MemStore fast_;
  MemStore slow_;
  TieredStore tiered_;
  sim::VirtualClock clock_;
};

TEST_F(TieredStoreTest, WritesGoToSlowTierOnly) {
  ASSERT_TRUE(tiered_.Put(clock_, 0, "k", ShareBytes(Bytes(10, 1))).ok());
  EXPECT_TRUE(slow_.Contains("k"));
  EXPECT_FALSE(fast_.Contains("k"));
}

// A slow-tier miss serves the range from the fetched whole object; an
// offset near UINT64_MAX must not wrap past that object's bounds check.
TEST_F(TieredStoreTest, RangeMissWithWrappingOffsetIsOutOfRange) {
  ASSERT_TRUE(tiered_.Put(clock_, 0, "k", ShareBytes(Bytes(100, 1))).ok());
  auto r = tiered_.GetRange(clock_, 0, "k", UINT64_MAX - 7, 16);
  EXPECT_EQ(r.status().code(), StatusCode::kOutOfRange);
  EXPECT_EQ(tiered_.stats().slow_hits, 1u);
}

TEST_F(TieredStoreTest, FirstReadMissesThenPromotes) {
  ASSERT_TRUE(tiered_.Put(clock_, 0, "k", ShareBytes(Bytes(10, 1))).ok());
  ASSERT_TRUE(tiered_.Get(clock_, 0, "k").ok());
  auto stats = tiered_.stats();
  EXPECT_EQ(stats.slow_hits, 1u);
  EXPECT_EQ(stats.promotions, 1u);
  EXPECT_TRUE(fast_.Contains("k"));

  ASSERT_TRUE(tiered_.Get(clock_, 0, "k").ok());
  EXPECT_EQ(tiered_.stats().fast_hits, 1u);
}

TEST_F(TieredStoreTest, RangeMissPromotesWholeObject) {
  Bytes data(100);
  for (int i = 0; i < 100; ++i) data[i] = static_cast<uint8_t>(i);
  ASSERT_TRUE(tiered_.Put(clock_, 0, "k", ShareBytes(data)).ok());
  auto r = tiered_.GetRange(clock_, 0, "k", 10, 5);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), Bytes({10, 11, 12, 13, 14}));
  // Chunk-granular server cache: whole object promoted on a range miss.
  EXPECT_TRUE(fast_.Contains("k"));
  EXPECT_EQ(fast_.Size(clock_, 0, "k").value(), 100u);
}

TEST_F(TieredStoreTest, CapacityBoundEvictsFifo) {
  TieredStore small(&fast_, &slow_, /*capacity=*/250);
  ASSERT_TRUE(small.Put(clock_, 0, "a", ShareBytes(Bytes(100, 1))).ok());
  ASSERT_TRUE(small.Put(clock_, 0, "b", ShareBytes(Bytes(100, 2))).ok());
  ASSERT_TRUE(small.Put(clock_, 0, "c", ShareBytes(Bytes(100, 3))).ok());
  ASSERT_TRUE(small.Get(clock_, 0, "a").ok());
  ASSERT_TRUE(small.Get(clock_, 0, "b").ok());
  EXPECT_TRUE(fast_.Contains("a"));
  EXPECT_TRUE(fast_.Contains("b"));
  // Third promotion evicts the first-in object ("a").
  ASSERT_TRUE(small.Get(clock_, 0, "c").ok());
  EXPECT_FALSE(fast_.Contains("a"));
  EXPECT_TRUE(fast_.Contains("b"));
  EXPECT_TRUE(fast_.Contains("c"));
  EXPECT_EQ(small.stats().evictions, 1u);
}

TEST_F(TieredStoreTest, OversizedObjectIsNotPromoted) {
  TieredStore small(&fast_, &slow_, /*capacity=*/50);
  ASSERT_TRUE(small.Put(clock_, 0, "big", ShareBytes(Bytes(100, 1))).ok());
  ASSERT_TRUE(small.Get(clock_, 0, "big").ok());
  EXPECT_FALSE(fast_.Contains("big"));
}

TEST_F(TieredStoreTest, DeleteDropsBothTiers) {
  ASSERT_TRUE(tiered_.Put(clock_, 0, "k", ShareBytes(Bytes(10, 1))).ok());
  ASSERT_TRUE(tiered_.Get(clock_, 0, "k").ok());  // promote
  ASSERT_TRUE(tiered_.Delete(clock_, 0, "k").ok());
  EXPECT_FALSE(fast_.Contains("k"));
  EXPECT_FALSE(slow_.Contains("k"));
}

TEST_F(TieredStoreTest, ListAndSizeComeFromSlowTier) {
  ASSERT_TRUE(tiered_.Put(clock_, 0, "x/1", ShareBytes(Bytes(5, 1))).ok());
  ASSERT_TRUE(tiered_.Put(clock_, 0, "x/2", ShareBytes(Bytes(6, 1))).ok());
  auto keys = tiered_.List(clock_, 0, "x/");
  ASSERT_TRUE(keys.ok());
  EXPECT_EQ(keys->size(), 2u);
  EXPECT_EQ(tiered_.Size(clock_, 0, "x/2").value(), 6u);
  EXPECT_EQ(tiered_.NumObjects(), 2u);
}

TEST_F(TieredStoreTest, MissOnMissingKeyStaysNotFound) {
  EXPECT_TRUE(tiered_.Get(clock_, 0, "ghost").status().IsNotFound());
  EXPECT_EQ(tiered_.stats().promotions, 0u);
}

}  // namespace
}  // namespace diesel::ostore
