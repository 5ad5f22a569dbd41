// ETCD-like configuration service (paper Fig. 2: "the system configurations
// are stored in an ETCD server").
//
// A small, linearizable, versioned key-value store used for control-plane
// state: DIESEL servers register under /diesel/servers/ at deployment and
// clients discover them by listing that prefix. Every mutation bumps a
// global revision, stamped into the entries it writes.
//
// Ops are charged to the caller's virtual clock through an RPC to the etcd
// node plus a service-device serve (consensus/commit cost).
#pragma once

#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "net/fabric.h"
#include "sim/clock.h"
#include "sim/device.h"

namespace diesel::etcd {

struct ConfigEntry {
  std::string key;
  std::string value;
  uint64_t create_revision = 0;
  uint64_t mod_revision = 0;
};

class ConfigStore {
 public:
  ConfigStore(net::Fabric& fabric, sim::NodeId node);

  sim::NodeId node() const { return node_; }

  // ---- data plane (charge `clock`) -----------------------------------------

  /// Put; returns the new revision.
  Result<uint64_t> Put(sim::VirtualClock& clock, sim::NodeId client,
                       std::string key, std::string value);

  Result<ConfigEntry> Get(sim::VirtualClock& clock, sim::NodeId client,
                          const std::string& key);

  /// All entries with the prefix, key-ordered.
  Result<std::vector<ConfigEntry>> List(sim::VirtualClock& clock,
                                        sim::NodeId client,
                                        const std::string& prefix);

  /// Delete; returns the new revision. NotFound if absent.
  Result<uint64_t> Delete(sim::VirtualClock& clock, sim::NodeId client,
                          const std::string& key);

  size_t NumKeys() const;

 private:
  template <typename Fn>
  Status Rpc(sim::VirtualClock& clock, sim::NodeId client, uint64_t bytes,
             Fn&& apply);

  net::Fabric& fabric_;
  sim::NodeId node_;
  sim::Device service_;

  mutable std::mutex mutex_;
  uint64_t revision_ = 0;
  std::map<std::string, ConfigEntry> data_;
};

// ---- discovery conventions ---------------------------------------------------

/// Key under which a DIESEL server advertises itself.
std::string ServerKey(uint32_t server_id);
/// Encoded advertisement: node id + capabilities string.
std::string ServerValue(sim::NodeId node, const std::string& info);
Result<sim::NodeId> ParseServerNode(const std::string& value);

}  // namespace diesel::etcd
