// StripedStore: chunk objects distributed across multiple storage gateways
// (the paper's cluster has six storage machines; Lustre/Ceph stripe objects
// across them). Each gateway is an independent ObjectStore (normally a
// ModeledStore with its own node, NIC and device), so aggregate bandwidth
// scales with gateway count. Objects are placed by consistent hashing of
// the key; List() merges the gateways' sorted listings.
#pragma once

#include <memory>
#include <vector>

#include "kv/ring.h"
#include "ostore/object_store.h"

namespace diesel::ostore {

class StripedStore : public ObjectStore {
 public:
  /// `gateways` must be non-empty and outlive this store.
  explicit StripedStore(std::vector<ObjectStore*> gateways);

  size_t NumGateways() const { return gateways_.size(); }
  /// Which gateway index owns a key (placement is stable).
  uint32_t OwnerOf(const std::string& key) const { return ring_.Owner(key); }

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
  ObjectStore& Owner(const std::string& key) {
    return *gateways_[ring_.Owner(key)];
  }

  std::vector<ObjectStore*> gateways_;
  kv::HashRing ring_;
};

}  // namespace diesel::ostore
