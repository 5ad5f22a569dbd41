// Test/bench deployment harness: assembles a complete simulated DIESEL
// installation (cluster, network fabric, KV metadata tier, object storage,
// DIESEL servers) with the paper's reference layout (Table 4): client nodes,
// storage gateway, KV nodes, server nodes.
//
// Node layout (dense ids):
//   [0, num_client_nodes)                      training/client machines
//   [C, C + 1)                                 storage gateway
//   [C+1, C+1+num_kv_nodes)                    KV (Redis-like) machines
//   [.., .. + num_servers)                     DIESEL server machines
#pragma once

#include <memory>
#include <vector>

#include "core/client.h"
#include "core/server.h"
#include "etcd/config_store.h"
#include "kv/cluster.h"
#include "net/fabric.h"
#include "ostore/mem_store.h"
#include "ostore/modeled_store.h"
#include "sim/node.h"

namespace diesel::core {

struct DeploymentOptions {
  size_t num_client_nodes = 4;
  size_t num_kv_nodes = 4;
  size_t num_servers = 1;
};

class Deployment {
 public:
  /// Fleets at or below this size get per-node NIC/membus metrics bound
  /// automatically; larger fleets keep only service-device telemetry so the
  /// registry and timeline dumps stay bounded.
  static constexpr size_t kMaxNodesForDeviceMetrics = 64;

  explicit Deployment(DeploymentOptions options);

  sim::Cluster& cluster() { return *cluster_; }
  net::Fabric& fabric() { return *fabric_; }
  kv::KvCluster& kv() { return *kv_; }
  /// The SSD-class object store every server reads and writes.
  ostore::ModeledStore& store() { return *store_; }

  size_t num_servers() const { return servers_.size(); }
  DieselServer& server(size_t i) { return *servers_.at(i); }
  std::vector<DieselServer*> server_ptrs();

  sim::NodeId client_node(size_t i) const { return static_cast<sim::NodeId>(i); }
  size_t num_client_nodes() const { return options_.num_client_nodes; }
  sim::NodeId storage_node() const {
    return static_cast<sim::NodeId>(options_.num_client_nodes);
  }
  sim::NodeId kv_node(size_t i) const {
    return static_cast<sim::NodeId>(options_.num_client_nodes + 1 + i);
  }
  sim::NodeId server_node(size_t i) const {
    return static_cast<sim::NodeId>(options_.num_client_nodes + 1 +
                                    options_.num_kv_nodes + i);
  }
  sim::NodeId etcd_node() const {
    return static_cast<sim::NodeId>(options_.num_client_nodes + 1 +
                                    options_.num_kv_nodes +
                                    options_.num_servers);
  }

  /// The configuration service (Fig. 2's ETCD). Servers self-register under
  /// /diesel/servers/ at deployment construction.
  etcd::ConfigStore& config() { return *config_; }

  /// Discover the registered DIESEL servers through the config service
  /// (charges `clock` for the etcd list RPC), then build a client wired to
  /// the discovered set — the production connect path; MakeClient() is the
  /// direct-wiring shortcut for tests.
  Result<std::unique_ptr<DieselClient>> MakeClientViaDiscovery(
      sim::VirtualClock& clock, size_t node_index, uint32_t client_index,
      const std::string& dataset);

  /// Construct a client on `client_node(node_index)` with local index
  /// `client_index`, connected to all servers.
  std::unique_ptr<DieselClient> MakeClient(size_t node_index,
                                           uint32_t client_index,
                                           const std::string& dataset,
                                           uint64_t chunk_bytes =
                                               kDefaultChunkTarget);

  const DeploymentOptions& options() const { return options_; }

  /// Clear every device's queue state (NICs, storage, KV shards, server
  /// service loops). Benchmarks call this between sweep points so virtual
  /// time restarts at zero without re-ingesting the dataset.
  void ResetDevices();

 private:
  DeploymentOptions options_;
  std::unique_ptr<sim::Cluster> cluster_;
  std::unique_ptr<net::Fabric> fabric_;
  std::unique_ptr<kv::KvCluster> kv_;
  std::unique_ptr<ostore::MemStore> backing_;
  std::unique_ptr<ostore::ModeledStore> store_;
  std::vector<std::unique_ptr<DieselServer>> servers_;
  std::unique_ptr<etcd::ConfigStore> config_;
};

}  // namespace diesel::core
