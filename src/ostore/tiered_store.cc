#include "ostore/tiered_store.h"

namespace diesel::ostore {

Status TieredStore::Put(sim::VirtualClock& clock, sim::NodeId client,
                        const std::string& key, SharedBytes data) {
  return slow_->Put(clock, client, key, std::move(data));
}

Result<SharedBytes> TieredStore::Get(sim::VirtualClock& clock,
                                     sim::NodeId client,
                                     const std::string& key) {
  bool in_fast;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    in_fast = fast_keys_.count(key) > 0;
    if (in_fast) {
      ++stats_.fast_hits;
    } else {
      ++stats_.slow_hits;
    }
  }
  if (in_fast) return fast_->Get(clock, client, key);
  Result<SharedBytes> blob = slow_->Get(clock, client, key);
  if (blob.ok()) Promote(key, blob.value());
  return blob;
}

Result<Bytes> TieredStore::GetRange(sim::VirtualClock& clock,
                                    sim::NodeId client, const std::string& key,
                                    uint64_t offset, uint64_t len) {
  bool in_fast;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    in_fast = fast_keys_.count(key) > 0;
    if (in_fast) {
      ++stats_.fast_hits;
    } else {
      ++stats_.slow_hits;
    }
  }
  if (in_fast) return fast_->GetRange(clock, client, key, offset, len);
  // Miss: read the whole object from the slow tier (chunk-granular caching),
  // promote, and return the requested range.
  DIESEL_ASSIGN_OR_RETURN(SharedBytes blob, slow_->Get(clock, client, key));
  if (offset > blob->size() || len > blob->size() - offset)
    return Status::OutOfRange("range past end of object: " + key);
  Promote(key, blob);
  return Bytes(blob->begin() + static_cast<ptrdiff_t>(offset),
               blob->begin() + static_cast<ptrdiff_t>(offset + len));
}

Status TieredStore::Delete(sim::VirtualClock& clock, sim::NodeId client,
                           const std::string& key) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (fast_keys_.erase(key) > 0) {
      (void)fast_->Delete(background_clock_, client, key);
    }
  }
  return slow_->Delete(clock, client, key);
}

Result<std::vector<std::string>> TieredStore::List(sim::VirtualClock& clock,
                                                   sim::NodeId client,
                                                   const std::string& prefix) {
  return slow_->List(clock, client, prefix);
}

Result<uint64_t> TieredStore::Size(sim::VirtualClock& clock, sim::NodeId client,
                                   const std::string& key) {
  return slow_->Size(clock, client, key);
}

void TieredStore::Promote(const std::string& key, const SharedBytes& blob) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (fast_keys_.count(key) > 0) return;
  if (capacity_ != 0) {
    while (fast_bytes_ + blob->size() > capacity_ && !fifo_.empty()) {
      const std::string& victim = fifo_.front();
      auto victim_size = fast_->Size(background_clock_, 0, victim);
      if (victim_size.ok()) fast_bytes_ -= victim_size.value();
      (void)fast_->Delete(background_clock_, 0, victim);
      fast_keys_.erase(victim);
      fifo_.pop_front();
      ++stats_.evictions;
    }
    if (fast_bytes_ + blob->size() > capacity_) return;  // object too large
  }
  if (fast_->Put(background_clock_, 0, key, blob).ok()) {
    fast_keys_.insert(key);
    fifo_.push_back(key);
    fast_bytes_ += blob->size();
    ++stats_.promotions;
  }
}

}  // namespace diesel::ostore
