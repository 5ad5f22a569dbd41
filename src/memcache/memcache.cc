#include "memcache/memcache.h"

#include <cassert>

#include "sim/calibration.h"

namespace diesel::memcache {
namespace {

constexpr uint64_t kItemOverheadBytes = 40;  // memcached protocol framing

}  // namespace

MemcachedCluster::MemcachedCluster(net::Fabric& fabric, MemcacheOptions options)
    : fabric_(fabric) {
  assert(!options.nodes.empty());
  for (uint32_t i = 0; i < options.nodes.size(); ++i) {
    auto inst = std::make_unique<Instance>();
    inst->node = options.nodes[i];
    inst->service = std::make_unique<sim::Device>(
        sim::MemcachedNodeSpec("mc" + std::to_string(i)));
    inst->proxy = std::make_unique<sim::Device>(
        sim::TwemproxySpec("twemproxy" + std::to_string(i)));
    instances_.push_back(std::move(inst));
    ring_.AddMember(i);
  }
}

template <typename Fn>
Status MemcachedCluster::Rpc(sim::VirtualClock& clock, sim::NodeId client,
                             Instance& inst, uint64_t req_bytes,
                             uint64_t resp_bytes, Nanos proxy_cost,
                             Fn&& apply) {
  // Client -> proxy hop -> memcached service, all on the owner node. The
  // proxy pipelines writes but serves reads one-by-one (§6.2), hence the
  // caller-provided per-op proxy cost.
  return fabric_.Call(
      clock, client, inst.node, req_bytes, resp_bytes,
      [&](Nanos arrival) {
        Nanos after_proxy = inst.proxy->Serve(arrival, req_bytes, proxy_cost);
        apply();
        uint64_t item_bytes = req_bytes + resp_bytes;
        Nanos slab_penalty =
            item_bytes > sim::kMcLargeItemThreshold
                ? static_cast<Nanos>(item_bytes * sim::kMcLargeItemNsPerByte)
                : 0;
        return inst.service->Serve(after_proxy, item_bytes, slab_penalty);
      });
}

Status MemcachedCluster::Set(sim::VirtualClock& clock, sim::NodeId client,
                             std::string key, std::string value) {
  Instance& inst = *instances_[ring_.Owner(key)];
  uint64_t req = key.size() + value.size() + kItemOverheadBytes;
  Status op_status;
  DIESEL_RETURN_IF_ERROR(Rpc(clock, client, inst, req, kItemOverheadBytes,
                             sim::kProxyWriteCost, [&] {
                               std::lock_guard<std::mutex> lock(inst.mutex);
                               if (!inst.enabled) {
                                 op_status = Status::Unavailable(
                                     "memcached instance disabled");
                                 return;
                               }
                               inst.items[std::move(key)] = std::move(value);
                             }));
  return op_status;
}

Result<std::string> MemcachedCluster::Get(sim::VirtualClock& clock,
                                          sim::NodeId client,
                                          const std::string& key) {
  Instance& inst = *instances_[ring_.Owner(key)];
  Result<std::string> result = Status::NotFound("miss");
  uint64_t req = key.size() + kItemOverheadBytes;
  uint64_t resp = 0;
  bool dead_instance = false;
  DIESEL_RETURN_IF_ERROR(Rpc(clock, client, inst, req, resp,
                             sim::kProxyReadCost, [&] {
    std::lock_guard<std::mutex> lock(inst.mutex);
    if (!inst.enabled) {
      result = Status::NotFound("memcached instance disabled");
      dead_instance = true;
      return;
    }
    auto it = inst.items.find(key);
    if (it == inst.items.end()) {
      result = Status::NotFound("miss: " + key);
    } else {
      result = it->second;
    }
  }));
  // A get routed to a dead instance pays connection-failure detection
  // (timeout + libMemcached retry) before the caller can fall back.
  if (dead_instance) clock.Advance(sim::kMcDeadInstanceCost);
  // Response bytes for a hit are paid on the way back; approximate by an
  // extra NIC charge sized to the value.
  if (result.ok() && !result.value().empty()) {
    Nanos t = fabric_.cluster().node(client).nic().Serve(
        clock.now(), result.value().size());
    clock.AdvanceTo(t);
  }
  return result;
}

Status MemcachedCluster::Delete(sim::VirtualClock& clock, sim::NodeId client,
                                const std::string& key) {
  Instance& inst = *instances_[ring_.Owner(key)];
  Status op_status;
  DIESEL_RETURN_IF_ERROR(Rpc(clock, client, inst,
                             key.size() + kItemOverheadBytes,
                             kItemOverheadBytes, sim::kProxyWriteCost, [&] {
                               std::lock_guard<std::mutex> lock(inst.mutex);
                               if (!inst.enabled) {
                                 op_status = Status::Unavailable(
                                     "memcached instance disabled");
                                 return;
                               }
                               op_status = inst.items.erase(key) > 0
                                               ? Status::Ok()
                                               : Status::NotFound(key);
                             }));
  return op_status;
}

void MemcachedCluster::DisableInstance(uint32_t instance_index) {
  Instance& inst = *instances_.at(instance_index);
  std::lock_guard<std::mutex> lock(inst.mutex);
  inst.enabled = false;
  inst.items.clear();  // in-memory cache: contents are gone
}

size_t MemcachedCluster::TotalItems() const {
  size_t n = 0;
  for (const auto& inst : instances_) {
    std::lock_guard<std::mutex> lock(inst->mutex);
    if (inst->enabled) n += inst->items.size();
  }
  return n;
}

}  // namespace diesel::memcache
