// One KV shard: an in-memory key-value store with a single-threaded
// service-loop device (Redis model).
//
// Storage is flat. Keys and values are copied into an arena of blocks, and
// an entry table records where each entry's key and value bytes are.
// - An open-addressing hash index on the key's ring hash, which the cluster
//   computes once per key and operation, serves Get, overwrite and Delete.
// - An index of entry ids in key order serves the prefix scan (pscan),
//   which the metadata schema relies on for readdir and snapshot builds.
//   A write appends a new key's id unsorted; the first Scan after it sorts
//   the new ids and merges them into the order, under the shard lock. A
//   scan then finds its range by binary search and walks it.
// - An overwrite rewrites the value in place when the new value fits, and
//   otherwise appends it. The bytes it leaves behind, and a deleted entry's,
//   are garbage; once garbage exceeds the live bytes (or dead entries the
//   live ones), the arena is rebuilt with the live entries only, in key
//   order.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/flat_hash_map.h"
#include "common/status.h"
#include "common/units.h"
#include "kv/ring.h"
#include "sim/device.h"

namespace diesel::kv {

struct ScanEntry {
  std::string key;
  std::string value;
};

/// A key with its ring hash (KeyHash). Built from a string-like key, it
/// hashes the key; the cluster passes the hash it already placed the key
/// with.
struct HashedKey {
  HashedKey() = default;
  HashedKey(std::string_view k, uint64_t h) : key(k), hash(h) {}
  template <typename K>
    requires std::is_convertible_v<const K&, std::string_view>
  HashedKey(const K& k) : key(k), hash(KeyHash(key)) {}  // NOLINT(implicit)

  std::string_view key;
  uint64_t hash = 0;
};

/// Entries for one KvCluster::BatchPut, in order: keys and values back to
/// back in one buffer that the caller owns, each key hashed once, when it is
/// added. A later entry for the same key overwrites an earlier one.
class WriteBatch {
 public:
  void Reserve(size_t entries, size_t bytes) {
    refs_.reserve(entries);
    bytes_.reserve(bytes);
  }

  void Put(std::string_view key, std::string_view value) {
    refs_.push_back({KeyHash(key), bytes_.size(),
                     static_cast<uint32_t>(key.size()),
                     static_cast<uint32_t>(value.size())});
    bytes_.append(key).append(value);
  }

  size_t size() const { return refs_.size(); }
  /// Views into the buffer, valid until the next Put.
  HashedKey key(size_t i) const {
    const Ref& r = refs_[i];
    return {std::string_view(bytes_).substr(r.offset, r.key_len), r.hash};
  }
  std::string_view value(size_t i) const {
    const Ref& r = refs_[i];
    return std::string_view(bytes_).substr(r.offset + r.key_len, r.value_len);
  }

 private:
  struct Ref {
    uint64_t hash;
    size_t offset;  // key bytes, then value bytes
    uint32_t key_len;
    uint32_t value_len;
  };

  std::string bytes_;
  std::vector<Ref> refs_;
};

class Shard {
 public:
  Shard(uint32_t id, sim::DeviceSpec service_spec)
      : id_(id), service_(std::move(service_spec)) {}

  uint32_t id() const { return id_; }
  sim::Device& service() { return service_; }

  bool up() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return up_;
  }

  /// Crash: all in-memory data lost and its memory freed, shard unavailable.
  void Fail();

  /// Restart empty (an in-memory store recovers with no data).
  void Restart() {
    std::lock_guard<std::mutex> lock(mutex_);
    up_ = true;
  }

  // Data-plane operations. These mutate/read state only; timing is charged
  // by the cluster through service(). All return Unavailable when down.
  Status Put(HashedKey key, std::string_view value);
  /// Put batch entries `entries` (indexes into `batch`), in order, under one
  /// lock. The shard copies the bytes, so the batch stays intact for a retry;
  /// a down shard returns Unavailable and stores nothing.
  Status PutBatch(const WriteBatch& batch, std::span<const uint32_t> entries);
  Result<std::string> Get(HashedKey key) const;
  Status Delete(HashedKey key);
  /// Visit the entries whose key starts with `prefix`, in key order, up to
  /// `limit` (0 = unlimited), as fn(std::string_view key,
  /// std::string_view value). The views point into the shard's arena. `fn`
  /// runs under the shard lock: it must not call back into the KV store,
  /// and the views die when it returns.
  template <typename Fn>
  Status Scan(std::string_view prefix, size_t limit, Fn&& fn) const {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!up_) return Status::Unavailable("shard down");
    auto [it, end] = PrefixRange(prefix);
    size_t n = 0;
    for (; it != end; ++it) {
      const Entry& e = entries_[*it];
      if (e.dead()) continue;
      fn(e.key(), e.value());
      if (++n == limit) break;
    }
    return Status::Ok();
  }

  size_t NumKeys() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return index_.size();
  }
  /// Key and value bytes of the live entries.
  size_t LiveBytes() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return live_bytes_;
  }
  /// Bytes the shard holds for entries: arena blocks (live, garbage and
  /// unused tails) plus the entry table and the key order.
  size_t StoredBytes() const;

 private:
  struct Entry {
    const char* key_data;
    char* value_data;  // an overwrite that fits writes here
    uint32_t key_len;
    uint32_t value_len;  // kDead once deleted

    static constexpr uint32_t kDead = UINT32_MAX;
    bool dead() const { return value_len == kDead; }
    std::string_view key() const { return {key_data, key_len}; }
    std::string_view value() const { return {value_data, value_len}; }
  };
  struct KeyHashOf {
    size_t operator()(const HashedKey& k) const { return k.hash; }
  };
  struct KeyEq {
    bool operator()(const HashedKey& a, const HashedKey& b) const {
      return a.hash == b.hash && a.key == b.key;
    }
  };
  using OrderIt = std::vector<uint32_t>::const_iterator;

  void PutLocked(HashedKey key, std::string_view value);
  /// `n` bytes of arena that stay put until the next Compact or Fail.
  char* Allocate(size_t n);
  /// Sort the ids added since the last scan into order_ (order_ is mutable
  /// for this: a const scan merges under the lock).
  void MergeOrder() const;
  /// order_'s range of keys that start with `prefix` (merged first).
  std::pair<OrderIt, OrderIt> PrefixRange(std::string_view prefix) const;
  /// Compact when garbage exceeds the live bytes or dead entries the live
  /// ones; the rebuild's cost is paid for by the garbage that triggered it.
  void MaybeCompact();
  /// Rebuild the arena, the entry table, the order and the index from the
  /// live entries, in key order.
  void Compact();
  void Clear();

  uint32_t id_;
  sim::Device service_;
  mutable std::mutex mutex_;
  bool up_ = true;

  std::vector<std::unique_ptr<char[]>> blocks_;
  char* cursor_ = nullptr;   // free bytes of the last block start here
  size_t room_ = 0;          // free bytes of the last block
  size_t arena_bytes_ = 0;   // sum of block sizes
  size_t live_bytes_ = 0;    // key + value bytes of live entries
  size_t garbage_bytes_ = 0; // allocated bytes no live entry uses
  size_t dead_entries_ = 0;

  std::vector<Entry> entries_;
  /// Entry ids, live and dead: [0, sorted_) in key order, then the ids
  /// added since, unsorted.
  mutable std::vector<uint32_t> order_;
  mutable size_t sorted_ = 0;
  /// Live key (a view into the arena) -> entry id.
  FlatHashMap<HashedKey, uint32_t, KeyHashOf, KeyEq> index_;
};

}  // namespace diesel::kv
