#include "common/crc32.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "common/bytes.h"
#include "common/rng.h"

namespace diesel {
namespace {

TEST(Crc32cTest, KnownVectors) {
  // Checked on the dispatched kernel and on the table kernel, which is the
  // oracle the hardware kernel is compared against below.
  for (auto crc : {&Crc32c, &detail::Crc32cTable}) {
    // RFC 3720 test vector: 32 zero bytes -> 0x8A9136AA.
    Bytes zeros(32, 0);
    EXPECT_EQ(crc(zeros, 0), 0x8A9136AAu);
    // 32 x 0xFF -> 0x62A8AB43.
    Bytes ones(32, 0xFF);
    EXPECT_EQ(crc(ones, 0), 0x62A8AB43u);
    // "123456789" -> 0xE3069283.
    std::string digits = "123456789";
    EXPECT_EQ(crc(AsBytesView(digits), 0), 0xE3069283u);
  }
}

TEST(Crc32cTest, HardwareMatchesTableOnRandomLengthsAndOffsets) {
  if (!detail::Crc32cHardwareActive()) {
    GTEST_SKIP() << "CPU lacks SSE4.2; Crc32c runs the table kernel";
  }
  constexpr size_t kMaxLen = 70 << 10;
  constexpr size_t kMaxOffset = 15;
  Rng rng(42);
  Bytes buf(kMaxLen + kMaxOffset);
  for (auto& b : buf) b = static_cast<uint8_t>(rng.Next());
  for (int trial = 0; trial < 400; ++trial) {
    // Mostly short lengths (tail handling), with a spread up to 70 KB.
    size_t len = trial % 2 == 0 ? rng.Uniform(64) : rng.Uniform(kMaxLen + 1);
    size_t offset = rng.Uniform(kMaxOffset + 1);
    uint32_t seed_crc = trial % 3 == 0 ? 0 : static_cast<uint32_t>(rng.Next());
    std::span<const uint8_t> data(buf.data() + offset, len);
    ASSERT_EQ(Crc32c(data, seed_crc), detail::Crc32cTable(data, seed_crc))
        << "len=" << len << " offset=" << offset << " crc=" << seed_crc;
  }
}

TEST(Crc32cTest, HardwareChainedContinuationMatchesTable) {
  if (!detail::Crc32cHardwareActive()) {
    GTEST_SKIP() << "CPU lacks SSE4.2; Crc32c runs the table kernel";
  }
  Rng rng(7);
  Bytes buf(20000);
  for (auto& b : buf) b = static_cast<uint8_t>(rng.Next());
  const uint32_t whole = detail::Crc32cTable(buf);
  for (int trial = 0; trial < 50; ++trial) {
    // Split into random pieces; feed them alternately to the two kernels so
    // each continues the other's running CRC.
    uint32_t crc = 0;
    size_t pos = 0;
    for (bool hw = trial % 2 == 0; pos < buf.size(); hw = !hw) {
      size_t n = std::min<size_t>(buf.size() - pos, 1 + rng.Uniform(3000));
      std::span<const uint8_t> piece(buf.data() + pos, n);
      crc = hw ? Crc32c(piece, crc) : detail::Crc32cTable(piece, crc);
      pos += n;
    }
    EXPECT_EQ(crc, whole) << "trial=" << trial;
  }
}

TEST(Crc32cTest, EmptyIsZero) { EXPECT_EQ(Crc32c({}), 0u); }

TEST(Crc32cTest, StreamingMatchesOneShot) {
  std::string data = "the quick brown fox jumps over the lazy dog";
  uint32_t whole = Crc32c(AsBytesView(data));
  for (size_t split = 0; split <= data.size(); ++split) {
    uint32_t part = Crc32c(AsBytesView(data.substr(0, split)));
    part = Crc32c(AsBytesView(data.substr(split)), part);
    EXPECT_EQ(part, whole) << "split=" << split;
  }
}

TEST(Crc32cTest, SingleBitFlipChangesChecksum) {
  Bytes data(64, 0x55);
  uint32_t base = Crc32c(data);
  for (size_t byte = 0; byte < data.size(); byte += 7) {
    Bytes mutated = data;
    mutated[byte] ^= 1;
    EXPECT_NE(Crc32c(mutated), base) << "byte=" << byte;
  }
}

}  // namespace
}  // namespace diesel
