#include "core/deployment.h"

#include "sim/calibration.h"

namespace diesel::core {

Deployment::Deployment(DeploymentOptions options) : options_(options) {
  size_t total_nodes = options_.num_client_nodes + 1 + options_.num_kv_nodes +
                       options_.num_servers + 1;  // +1: etcd node
  cluster_ = std::make_unique<sim::Cluster>(total_nodes);
  fabric_ = std::make_unique<net::Fabric>(*cluster_);
  // Per-node NIC/membus telemetry is cheap at bench scale but would mint
  // thousands of series on a 512-node rescale fleet; cap it. Service devices
  // (servers, KV shards, stores) are few and always bound.
  if (total_nodes <= kMaxNodesForDeviceMetrics) cluster_->BindDeviceMetrics();

  kv::KvClusterOptions kv_opts;
  for (size_t i = 0; i < options_.num_kv_nodes; ++i) {
    kv_opts.nodes.push_back(kv_node(i));
  }
  kv_ = std::make_unique<kv::KvCluster>(*fabric_, kv_opts);

  backing_ = std::make_unique<ostore::MemStore>();
  store_ = std::make_unique<ostore::ModeledStore>(
      *fabric_, storage_node(), sim::SsdClusterSpec(),
      sim::SsdClusterWriteSpec(), backing_.get());

  for (size_t i = 0; i < options_.num_servers; ++i) {
    ServerOptions so;
    so.node = server_node(i);
    servers_.push_back(
        std::make_unique<DieselServer>(*fabric_, *kv_, *store_, so));
  }

  // Config service: every server advertises itself (Fig. 2 control plane).
  config_ = std::make_unique<etcd::ConfigStore>(*fabric_, etcd_node());
  sim::VirtualClock boot;
  for (size_t i = 0; i < options_.num_servers; ++i) {
    auto rev = config_->Put(
        boot, server_node(i), etcd::ServerKey(static_cast<uint32_t>(i)),
        etcd::ServerValue(server_node(i), "diesel-server"));
    if (!rev.ok()) std::abort();  // boot-time registration cannot fail
  }
}

Result<std::unique_ptr<DieselClient>> Deployment::MakeClientViaDiscovery(
    sim::VirtualClock& clock, size_t node_index, uint32_t client_index,
    const std::string& dataset) {
  DIESEL_ASSIGN_OR_RETURN(
      std::vector<etcd::ConfigEntry> entries,
      config_->List(clock, client_node(node_index), "/diesel/servers/"));
  if (entries.empty())
    return Status::Unavailable("no DIESEL servers registered");
  std::vector<DieselServer*> discovered;
  for (const etcd::ConfigEntry& e : entries) {
    DIESEL_ASSIGN_OR_RETURN(sim::NodeId node,
                            etcd::ParseServerNode(e.value));
    for (auto& s : servers_) {
      if (s->node() == node) discovered.push_back(s.get());
    }
  }
  if (discovered.empty())
    return Status::Unavailable("registered servers not reachable");
  ClientOptions co;
  co.dataset = dataset;
  co.node = client_node(node_index);
  co.client_index = client_index;
  return std::make_unique<DieselClient>(*fabric_, std::move(discovered), co);
}

void Deployment::ResetDevices() {
  cluster_->ResetDevices();
  kv_->ResetDevices();
  store_->device().Reset();
  store_->write_device().Reset();
  for (auto& s : servers_) s->service().Reset();
}

std::vector<DieselServer*> Deployment::server_ptrs() {
  std::vector<DieselServer*> out;
  out.reserve(servers_.size());
  for (auto& s : servers_) out.push_back(s.get());
  return out;
}

std::unique_ptr<DieselClient> Deployment::MakeClient(size_t node_index,
                                                     uint32_t client_index,
                                                     const std::string& dataset,
                                                     uint64_t chunk_bytes) {
  ClientOptions co;
  co.dataset = dataset;
  co.node = client_node(node_index);
  co.client_index = client_index;
  co.chunk_target_bytes = chunk_bytes;
  return std::make_unique<DieselClient>(*fabric_, server_ptrs(), co);
}

}  // namespace diesel::core
