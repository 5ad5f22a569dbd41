#include "core/chunk_id.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "common/rng.h"

namespace diesel::core {
namespace {

TEST(ChunkIdTest, FieldRoundTrip) {
  ChunkId id = ChunkId::Make(0x12345678, 0xAABBCCDDEEFFULL, 0x00ABCDEF,
                             0x00123456);
  EXPECT_EQ(id.timestamp_sec(), 0x12345678u);
  EXPECT_EQ(id.machine(), 0xAABBCCDDEEFFULL);
  EXPECT_EQ(id.process_id(), 0x00ABCDEFu);
  EXPECT_EQ(id.counter(), 0x00123456u);
}

TEST(ChunkIdTest, FieldsMaskedToDeclaredWidths) {
  // machine keeps 48 bits, pid/counter keep 24 bits (Table 1 layout).
  ChunkId id = ChunkId::Make(1, ~0ULL, ~0u, ~0u);
  EXPECT_EQ(id.machine(), 0xFFFFFFFFFFFFULL);
  EXPECT_EQ(id.process_id(), 0xFFFFFFu);
  EXPECT_EQ(id.counter(), 0xFFFFFFu);
}

TEST(ChunkIdTest, EncodedLengthAndRoundTrip) {
  ChunkId id = ChunkId::Make(1234567, 42, 7, 99);
  std::string enc = id.Encoded();
  EXPECT_EQ(enc.size(), ChunkId::kEncodedSize);
  auto back = ChunkId::FromEncoded(enc);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value(), id);
}

TEST(ChunkIdTest, FromEncodedRejectsBadInput) {
  EXPECT_FALSE(ChunkId::FromEncoded("short").ok());
  EXPECT_FALSE(ChunkId::FromEncoded(std::string(22, '=')).ok());
  EXPECT_FALSE(ChunkId::FromEncoded(std::string(23, 'A')).ok());
}

TEST(ChunkIdTest, IsZero) {
  EXPECT_TRUE(ChunkId().IsZero());
  EXPECT_FALSE(ChunkId::Make(0, 0, 0, 1).IsZero());
}

// The §4.1.2 property: encoded order == binary order == write order.
TEST(ChunkIdTest, PropertyEncodedOrderMatchesWriteOrder) {
  Rng rng(3);
  std::vector<ChunkId> ids;
  uint32_t ts = 1000;
  ChunkIdGenerator gen_a(/*machine=*/1, /*pid=*/10);
  ChunkIdGenerator gen_b(/*machine=*/2, /*pid=*/20);
  for (int i = 0; i < 500; ++i) {
    ts += static_cast<uint32_t>(rng.Uniform(3));  // time moves forward
    ids.push_back((i % 2 == 0 ? gen_a : gen_b).Next(ts));
  }
  // Binary order sorts primarily by timestamp.
  std::vector<ChunkId> sorted = ids;
  std::sort(sorted.begin(), sorted.end());
  for (size_t i = 1; i < sorted.size(); ++i) {
    EXPECT_LE(sorted[i - 1].timestamp_sec(), sorted[i].timestamp_sec());
  }
  // Encoded order must equal binary order.
  std::vector<std::string> encoded;
  for (const ChunkId& id : ids) encoded.push_back(id.Encoded());
  std::sort(encoded.begin(), encoded.end());
  for (size_t i = 0; i < sorted.size(); ++i) {
    EXPECT_EQ(encoded[i], sorted[i].Encoded()) << "position " << i;
  }
}

TEST(ChunkIdGeneratorTest, CounterIncrementsAndIdsUnique) {
  ChunkIdGenerator gen(5, 6);
  std::set<ChunkId> seen;
  for (int i = 0; i < 1000; ++i) {
    ChunkId id = gen.Next(42);
    EXPECT_EQ(id.counter(), static_cast<uint32_t>(i));
    EXPECT_TRUE(seen.insert(id).second);
  }
}

TEST(ChunkIdGeneratorTest, DistinctProcessesNeverCollide) {
  ChunkIdGenerator a(1, 1), b(1, 2), c(2, 1);
  std::set<ChunkId> seen;
  for (int i = 0; i < 300; ++i) {
    EXPECT_TRUE(seen.insert(a.Next(7)).second);
    EXPECT_TRUE(seen.insert(b.Next(7)).second);
    EXPECT_TRUE(seen.insert(c.Next(7)).second);
  }
}

TEST(ChunkIdGeneratorTest, CounterWrapsAt24Bits) {
  ChunkIdGenerator gen(1, 1);
  // Directly exercise Make's masking at the wrap boundary.
  ChunkId just_below = ChunkId::Make(1, 1, 1, 0xFFFFFF);
  ChunkId wrapped = ChunkId::Make(1, 1, 1, 0x1000000);
  EXPECT_EQ(just_below.counter(), 0xFFFFFFu);
  EXPECT_EQ(wrapped.counter(), 0u);
}

TEST(ChunkIdTest, HashSpreadsSequentialIdsUnderLinearProbing) {
  // One process mints IDs that differ only in the counter and, across
  // seconds, the timestamp. Insert 4096 of them into a half-full linear
  // probing table: a well-mixed hash needs ~2.5 probes per insert on
  // average; one that clusters sequential IDs needs far more.
  constexpr size_t kIds = 4096;
  constexpr size_t kSlots = 2 * kIds;
  std::vector<bool> used(kSlots);
  size_t probes = 0;
  ChunkIdGenerator gen(0xA1B2C3D4E5F6ULL, 4242);
  for (size_t i = 0; i < kIds; ++i) {
    ChunkId id = gen.Next(static_cast<uint32_t>(1000 + i / 512));
    size_t slot = ChunkIdHash{}(id) & (kSlots - 1);
    for (++probes; used[slot]; ++probes) slot = (slot + 1) & (kSlots - 1);
    used[slot] = true;
  }
  EXPECT_LT(static_cast<double>(probes) / kIds, 3.5);
}

}  // namespace
}  // namespace diesel::core
