// TieredStore: the DIESEL server cache (Fig. 4).
//
// Reads try the fast tier (SSD-class) first; on a miss they are served by
// the slow tier (HDD-class) and the object is promoted so subsequent reads
// hit the fast tier — "if a cache miss occurs on the server-side, the server
// will start to cache the dataset in the background". Promotion capacity is
// bounded; eviction is FIFO in insertion order (datasets are read wholly and
// cyclically, so recency gives no signal).
#pragma once

#include <deque>
#include <mutex>
#include <string>
#include <unordered_set>

#include "ostore/object_store.h"

namespace diesel::ostore {

struct TieredStats {
  uint64_t fast_hits = 0;
  uint64_t slow_hits = 0;
  uint64_t promotions = 0;
  uint64_t evictions = 0;
};

class TieredStore : public ObjectStore {
 public:
  /// Both tiers must outlive this store. `fast_capacity_bytes` bounds the
  /// fast tier (0 = unbounded). Writes go to the slow tier (durable) only;
  /// the fast tier fills via promotion.
  TieredStore(ObjectStore* fast, ObjectStore* slow, uint64_t fast_capacity_bytes)
      : fast_(fast), slow_(slow), capacity_(fast_capacity_bytes) {}

  Status Put(sim::VirtualClock& clock, sim::NodeId client,
             const std::string& key, SharedBytes data) override;
  Result<SharedBytes> Get(sim::VirtualClock& clock, sim::NodeId client,
                          const std::string& key) override;
  Result<Bytes> GetRange(sim::VirtualClock& clock, sim::NodeId client,
                         const std::string& key, uint64_t offset,
                         uint64_t len) override;
  Status Delete(sim::VirtualClock& clock, sim::NodeId client,
                const std::string& key) override;
  Result<std::vector<std::string>> List(sim::VirtualClock& clock,
                                        sim::NodeId client,
                                        const std::string& prefix) override;
  Result<uint64_t> Size(sim::VirtualClock& clock, sim::NodeId client,
                        const std::string& key) override;
  bool Contains(const std::string& key) const override {
    return slow_->Contains(key);
  }
  size_t NumObjects() const override { return slow_->NumObjects(); }
  uint64_t TotalBytes() const override { return slow_->TotalBytes(); }

  TieredStats stats() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
  }

 private:
  /// After a slow-tier hit: install into the fast tier, evicting as needed.
  /// Promotion time is charged to a detached background clock, not `clock` —
  /// the caller does not wait for it (paper: caching happens in background).
  /// The fast tier shares the blob with the slow tier; nothing is copied.
  void Promote(const std::string& key, const SharedBytes& blob);

  ObjectStore* fast_;
  ObjectStore* slow_;
  uint64_t capacity_;

  mutable std::mutex mutex_;
  std::unordered_set<std::string> fast_keys_;
  std::deque<std::string> fifo_;
  uint64_t fast_bytes_ = 0;
  TieredStats stats_;
  sim::VirtualClock background_clock_;
};

}  // namespace diesel::ostore
