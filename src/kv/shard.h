// One KV shard: an ordered in-memory key-value map with a single-threaded
// service-loop device (Redis model). Ordered storage gives prefix scans
// (pscan) in O(log n + k), which the metadata schema relies on for readdir.
#pragma once

#include <map>
#include <mutex>
#include <optional>
#include <string>
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
  /// All entries whose key starts with `prefix`, in key order, up to `limit`
  /// (0 = unlimited).
  Result<std::vector<ScanEntry>> Scan(const std::string& prefix,
                                      size_t limit = 0) const;

  size_t NumKeys() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return data_.size();
  }

 private:
  uint32_t id_;
  sim::Device service_;
  mutable std::mutex mutex_;
  bool up_ = true;
  std::map<std::string, std::string> data_;
};

}  // namespace diesel::kv
