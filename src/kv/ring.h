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

/// The ring hash of a key. FNV-1a alone clusters similar keys (shared
/// prefixes differ mostly in low bits); the Mix64 finalizer spreads them
/// across the whole ring. The KV tier computes it once per key and per
/// operation: the ring places the key with it and the shard's hash index
/// finds it with it.
inline uint64_t KeyHash(std::string_view key) { return Mix64(Fnv1a64(key)); }

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
  uint32_t Owner(std::string_view key) const {
    return OwnerOfHash(KeyHash(key));
  }
  /// Owning member for a ring hash, in O(1) expected: the bucket of `h`'s
  /// top bits gives the first ring point at or after the bucket's start,
  /// and at most the bucket's own points are stepped over from there.
  uint32_t OwnerOfHash(uint64_t h) const;

  /// Fraction of the hash space owned by `member` (for balance tests).
  double OwnedFraction(uint32_t member) const;

 private:
  using Point = std::pair<uint64_t, uint32_t>;  // ring point, member

  /// Recompute bucket_ for the current ring_; every membership change
  /// calls it.
  void RebuildBuckets();

  uint32_t vnodes_;
  std::vector<Point> ring_;  // sorted by point; points are unique
  std::vector<uint32_t> members_;
  /// bucket_[b] is the index of the first point >= b << bucket_shift_.
  /// There are at least twice as many buckets as points (up to a cap), so
  /// a bucket holds under one point on average.
  std::vector<uint32_t> bucket_;
  int bucket_shift_ = 63;
};

}  // namespace diesel::kv
