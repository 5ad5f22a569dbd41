// In-memory object store. Two uses:
//  - tests: no devices, zero virtual time;
//  - as the backing blob map wrapped by ModeledStore for benchmarks.
#pragma once

#include <map>
#include <mutex>

#include "ostore/object_store.h"

namespace diesel::ostore {

class MemStore : public ObjectStore {
 public:
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
  bool Contains(const std::string& key) const override;
  size_t NumObjects() const override;
  uint64_t TotalBytes() const override;

 private:
  mutable std::mutex mutex_;
  std::map<std::string, SharedBytes> blobs_;  // ordered for List
  uint64_t total_bytes_ = 0;
};

}  // namespace diesel::ostore
