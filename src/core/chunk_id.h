// Chunk identifiers (paper Table 1).
//
// 16 bytes: | timestamp (4, seconds) | machine id (6, MAC) | process id (3) |
//           | counter (3) |
// Fields are big-endian so raw byte order equals write order; the printable
// form uses order-preserving base64 (base64lex), so sorting encoded IDs in an
// object store also yields write order — the property the metadata recovery
// scan relies on (§4.1.2). Each process can mint 2^24 ≈ 16.7M IDs per second.
#pragma once

#include <array>
#include <compare>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

#include "common/hash.h"
#include "common/status.h"

namespace diesel::core {

class ChunkId {
 public:
  static constexpr size_t kSize = 16;
  static constexpr size_t kEncodedSize = 22;  // ceil(16 * 4 / 3)

  ChunkId() = default;

  /// Assemble from fields. machine uses its low 48 bits, pid and counter
  /// their low 24 bits.
  static ChunkId Make(uint32_t timestamp_sec, uint64_t machine, uint32_t pid,
                      uint32_t counter);

  uint32_t timestamp_sec() const;
  uint64_t machine() const;
  uint32_t process_id() const;
  uint32_t counter() const;

  const std::array<uint8_t, kSize>& bytes() const { return bytes_; }
  std::array<uint8_t, kSize>& mutable_bytes() { return bytes_; }

  /// Printable, order-preserving form (22 chars).
  std::string Encoded() const;
  static Result<ChunkId> FromEncoded(std::string_view text);

  bool IsZero() const;

  friend auto operator<=>(const ChunkId&, const ChunkId&) = default;

 private:
  std::array<uint8_t, kSize> bytes_{};
};

/// Hash of the 16 raw ID bytes (no encoding). IDs minted in sequence differ
/// only in their low counter and timestamp bytes, so both halves go through
/// a full-avalanche mix: a plain fold of the halves clusters such IDs under
/// linear probing.
struct ChunkIdHash {
  size_t operator()(const ChunkId& id) const {
    uint64_t hi = 0;
    uint64_t lo = 0;
    std::memcpy(&hi, id.bytes().data(), sizeof(hi));
    std::memcpy(&lo, id.bytes().data() + sizeof(hi), sizeof(lo));
    return static_cast<size_t>(HashCombine(Mix64(hi), lo));
  }
};

/// Mints monotonically increasing chunk IDs for one (machine, process).
/// Thread-compatible: callers on multiple threads must hold their own
/// generator (mirrors the per-process counter in the paper).
class ChunkIdGenerator {
 public:
  ChunkIdGenerator(uint64_t machine, uint32_t pid)
      : machine_(machine), pid_(pid) {}

  /// Next ID stamped with `timestamp_sec`. The counter increments across
  /// calls and wraps at 2^24.
  ChunkId Next(uint32_t timestamp_sec) {
    return ChunkId::Make(timestamp_sec, machine_, pid_, counter_++);
  }

 private:
  uint64_t machine_;
  uint32_t pid_;
  uint32_t counter_ = 0;
};

}  // namespace diesel::core
