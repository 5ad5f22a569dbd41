// Consistent-hash ring with virtual nodes.
//
// Used by both the Redis-like metadata tier and the Memcached baseline
// (twemproxy uses ketama-style consistent hashing). Keys map to the first
// ring point clockwise of hash(key); removing a member only remaps the keys
// that pointed at it.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/hash.h"

namespace diesel::kv {

class HashRing {
 public:
  explicit HashRing(uint32_t vnodes_per_member = 64)
      : vnodes_(vnodes_per_member) {}

  /// Add a member (e.g. shard index). No-op if already present.
  void AddMember(uint32_t member);
  void RemoveMember(uint32_t member);
  bool HasMember(uint32_t member) const;
  size_t NumMembers() const { return members_.size(); }

  /// Owning member for a key. Requires at least one member.
  uint32_t Owner(std::string_view key) const;
  uint32_t OwnerOfHash(uint64_t h) const;

  /// Fraction of the hash space owned by `member` (for balance tests).
  double OwnedFraction(uint32_t member) const;

 private:
  using Point = std::pair<uint64_t, uint32_t>;  // ring point, member

  /// First point at or clockwise of `h` (end() past the last point).
  std::vector<Point>::const_iterator LowerBound(uint64_t h) const;

  uint32_t vnodes_;
  std::vector<Point> ring_;  // sorted by point; points are unique
  std::vector<uint32_t> members_;
};

}  // namespace diesel::kv
