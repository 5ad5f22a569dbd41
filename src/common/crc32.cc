#include "common/crc32.h"

#include <array>
#include <cstring>

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

namespace diesel {
namespace {

// Table-driven CRC32C (polynomial 0x1EDC6F41, reflected 0x82F63B78).
constexpr std::array<uint32_t, 256> MakeTable() {
  std::array<uint32_t, 256> table{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? (0x82F63B78u ^ (c >> 1)) : (c >> 1);
    }
    table[i] = c;
  }
  return table;
}

constexpr auto kTable = MakeTable();

#if defined(__x86_64__)
// SSE4.2 `crc32` computes the same reflected CRC32C, 8 bytes per step.
__attribute__((target("sse4.2"))) uint32_t Crc32cSse42(
    std::span<const uint8_t> data, uint32_t crc) {
  const uint8_t* p = data.data();
  size_t n = data.size();
  uint64_t c = crc ^ 0xFFFFFFFFu;
  for (; n >= 8; p += 8, n -= 8) {
    uint64_t word;
    std::memcpy(&word, p, sizeof(word));  // unaligned-safe load
    c = _mm_crc32_u64(c, word);
  }
  uint32_t c32 = static_cast<uint32_t>(c);
  for (; n > 0; ++p, --n) c32 = _mm_crc32_u8(c32, *p);
  return c32 ^ 0xFFFFFFFFu;
}

bool DetectHardware() {
  __builtin_cpu_init();  // may run before libgcc's own constructor
  return __builtin_cpu_supports("sse4.2");
}
#else
bool DetectHardware() { return false; }
#endif

// Resolved once, during static initialization. A caller that runs before
// this initializer sees false and takes the table path, which gives the
// same result.
const bool kHardware = DetectHardware();

}  // namespace

uint32_t Crc32c(std::span<const uint8_t> data, uint32_t crc) {
#if defined(__x86_64__)
  if (kHardware) return Crc32cSse42(data, crc);
#endif
  return detail::Crc32cTable(data, crc);
}

namespace detail {

uint32_t Crc32cTable(std::span<const uint8_t> data, uint32_t crc) {
  uint32_t c = crc ^ 0xFFFFFFFFu;
  for (uint8_t byte : data) {
    c = kTable[(c ^ byte) & 0xFF] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

bool Crc32cHardwareActive() { return kHardware; }

}  // namespace detail
}  // namespace diesel
