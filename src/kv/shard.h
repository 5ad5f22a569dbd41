// One KV shard: an ordered in-memory key-value map with a single-threaded
// service-loop device (Redis model). Ordered storage gives prefix scans
// (pscan) in O(log n + k), which the metadata schema relies on for readdir.
#pragma once

#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/units.h"
#include "sim/device.h"

namespace diesel::kv {

struct ScanEntry {
  std::string key;
  std::string value;
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

  /// Crash: all in-memory data lost, shard unavailable.
  void Fail() {
    std::lock_guard<std::mutex> lock(mutex_);
    up_ = false;
    data_.clear();
  }

  /// Restart empty (an in-memory store recovers with no data).
  void Restart() {
    std::lock_guard<std::mutex> lock(mutex_);
    up_ = true;
  }

  // Data-plane operations. These mutate/read state only; timing is charged
  // by the cluster through service(). All return Unavailable when down.
  Status Put(std::string key, std::string value);
  /// Move every entry of `entries` in under one lock. A down shard returns
  /// Unavailable before touching `entries`, so the caller can retry with the
  /// batch intact.
  Status PutBatch(std::vector<std::pair<std::string, std::string>>& entries);
  Result<std::string> Get(const std::string& key) const;
  Status Delete(const std::string& key);
  /// Visit the entries whose key starts with `prefix`, in key order, up to
  /// `limit` (0 = unlimited), as fn(std::string_view key,
  /// std::string_view value). `fn` runs under the shard lock: it must not
  /// call back into the KV store, and the views die when it returns.
  template <typename Fn>
  Status Scan(std::string_view prefix, size_t limit, Fn&& fn) const {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!up_) return Status::Unavailable("shard down");
    // The range ends at the first key past every key with the prefix, so
    // the loop never reads a key to test it. Each entry is a map node plus
    // separate key and value buffers, scattered in memory: a cursor
    // kLookahead entries ahead prefetches the buffers so that their cache
    // misses overlap instead of queueing.
    constexpr int kLookahead = 4;
    auto it = data_.lower_bound(prefix);
    const auto end = PrefixEnd(prefix);
    auto ahead = it;
    for (int i = 0; i < kLookahead && ahead != end; ++i, ++ahead) {
      Prefetch(*ahead);
    }
    size_t n = 0;
    for (; it != end; ++it) {
      if (ahead != end) Prefetch(*ahead++);
      fn(std::string_view(it->first), std::string_view(it->second));
      if (++n == limit) break;
    }
    return Status::Ok();
  }

  size_t NumKeys() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return data_.size();
  }

 private:
  using Map = std::map<std::string, std::string, std::less<>>;

  /// The first entry whose key sorts after every key starting with
  /// `prefix`.
  Map::const_iterator PrefixEnd(std::string_view prefix) const {
    std::string next(prefix);
    while (!next.empty() && static_cast<unsigned char>(next.back()) == 0xFF) {
      next.pop_back();
    }
    if (next.empty()) return data_.end();
    next.back() = static_cast<char>(static_cast<unsigned char>(next.back()) + 1);
    return data_.lower_bound(next);
  }

  static void Prefetch(const Map::value_type& e) {
    __builtin_prefetch(e.first.data());
    __builtin_prefetch(e.second.data());
  }

  uint32_t id_;
  sim::Device service_;
  mutable std::mutex mutex_;
  bool up_ = true;
  Map data_;
};

}  // namespace diesel::kv
