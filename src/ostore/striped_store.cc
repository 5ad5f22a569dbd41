#include "ostore/striped_store.h"

#include <algorithm>
#include <cassert>

namespace diesel::ostore {

StripedStore::StripedStore(std::vector<ObjectStore*> gateways)
    : gateways_(std::move(gateways)) {
  assert(!gateways_.empty());
  for (uint32_t g = 0; g < gateways_.size(); ++g) ring_.AddMember(g);
}

Status StripedStore::Put(sim::VirtualClock& clock, sim::NodeId client,
                         const std::string& key, SharedBytes data) {
  return Owner(key).Put(clock, client, key, std::move(data));
}

Result<SharedBytes> StripedStore::Get(sim::VirtualClock& clock,
                                      sim::NodeId client,
                                      const std::string& key) {
  return Owner(key).Get(clock, client, key);
}

Result<Bytes> StripedStore::GetRange(sim::VirtualClock& clock,
                                     sim::NodeId client,
                                     const std::string& key, uint64_t offset,
                                     uint64_t len) {
  return Owner(key).GetRange(clock, client, key, offset, len);
}

Status StripedStore::Delete(sim::VirtualClock& clock, sim::NodeId client,
                            const std::string& key) {
  return Owner(key).Delete(clock, client, key);
}

Result<std::vector<std::string>> StripedStore::List(sim::VirtualClock& clock,
                                                    sim::NodeId client,
                                                    const std::string& prefix) {
  std::vector<std::string> merged;
  for (ObjectStore* g : gateways_) {
    DIESEL_ASSIGN_OR_RETURN(std::vector<std::string> part,
                            g->List(clock, client, prefix));
    merged.insert(merged.end(), std::make_move_iterator(part.begin()),
                  std::make_move_iterator(part.end()));
  }
  std::sort(merged.begin(), merged.end());
  return merged;
}

Result<uint64_t> StripedStore::Size(sim::VirtualClock& clock,
                                    sim::NodeId client,
                                    const std::string& key) {
  return Owner(key).Size(clock, client, key);
}

bool StripedStore::Contains(const std::string& key) const {
  return gateways_[ring_.Owner(key)]->Contains(key);
}

size_t StripedStore::NumObjects() const {
  size_t n = 0;
  for (const ObjectStore* g : gateways_) n += g->NumObjects();
  return n;
}

uint64_t StripedStore::TotalBytes() const {
  uint64_t n = 0;
  for (const ObjectStore* g : gateways_) n += g->TotalBytes();
  return n;
}

}  // namespace diesel::ostore
