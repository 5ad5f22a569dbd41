#include "etcd/config_store.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>

namespace diesel::etcd {
namespace {

// Consensus commit + fsync cost per mutation; reads are leader-local.
sim::DeviceSpec EtcdServiceSpec() {
  return {.name = "etcd/svc", .channels = 1, .latency = Micros(120),
          .bytes_per_sec = 1.0e9};
}

constexpr uint64_t kRpcBytes = 128;

}  // namespace

ConfigStore::ConfigStore(net::Fabric& fabric, sim::NodeId node)
    : fabric_(fabric), node_(node), service_(EtcdServiceSpec()) {}

template <typename Fn>
Status ConfigStore::Rpc(sim::VirtualClock& clock, sim::NodeId client,
                        uint64_t bytes, Fn&& apply) {
  return fabric_.Call(clock, client, node_, bytes + kRpcBytes, kRpcBytes,
                      [&](Nanos arrival) {
                        apply();
                        return service_.Serve(arrival, bytes);
                      });
}

Result<uint64_t> ConfigStore::Put(sim::VirtualClock& clock, sim::NodeId client,
                                  std::string key, std::string value) {
  uint64_t rev = 0;
  DIESEL_RETURN_IF_ERROR(
      Rpc(clock, client, key.size() + value.size(), [&] {
        std::lock_guard<std::mutex> lock(mutex_);
        ++revision_;
        auto [it, inserted] = data_.try_emplace(key);
        if (inserted) it->second.create_revision = revision_;
        it->second.key = key;
        it->second.value = std::move(value);
        it->second.mod_revision = revision_;
        rev = revision_;
      }));
  return rev;
}

Result<ConfigEntry> ConfigStore::Get(sim::VirtualClock& clock,
                                     sim::NodeId client,
                                     const std::string& key) {
  Result<ConfigEntry> result = Status::NotFound("config key: " + key);
  DIESEL_RETURN_IF_ERROR(Rpc(clock, client, key.size(), [&] {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = data_.find(key);
    if (it != data_.end()) result = it->second;
  }));
  return result;
}

Result<std::vector<ConfigEntry>> ConfigStore::List(sim::VirtualClock& clock,
                                                   sim::NodeId client,
                                                   const std::string& prefix) {
  std::vector<ConfigEntry> out;
  DIESEL_RETURN_IF_ERROR(Rpc(clock, client, prefix.size() + 256, [&] {
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto it = data_.lower_bound(prefix); it != data_.end(); ++it) {
      if (it->first.compare(0, prefix.size(), prefix) != 0) break;
      out.push_back(it->second);
    }
  }));
  return out;
}

Result<uint64_t> ConfigStore::Delete(sim::VirtualClock& clock,
                                     sim::NodeId client,
                                     const std::string& key) {
  uint64_t rev = 0;  // 0: no such key (revisions start at 1)
  DIESEL_RETURN_IF_ERROR(Rpc(clock, client, key.size(), [&] {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = data_.find(key);
    if (it == data_.end()) return;
    data_.erase(it);
    rev = ++revision_;
  }));
  if (rev == 0) return Status::NotFound("config key: " + key);
  return rev;
}

size_t ConfigStore::NumKeys() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return data_.size();
}

// ---- discovery conventions ---------------------------------------------------

std::string ServerKey(uint32_t server_id) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "/diesel/servers/%05u", server_id);
  return buf;
}

std::string ServerValue(sim::NodeId node, const std::string& info) {
  return std::to_string(node) + ";" + info;
}

Result<sim::NodeId> ParseServerNode(const std::string& value) {
  size_t sep = value.find(';');
  if (sep == std::string::npos)
    return Status::Corruption("server advertisement missing separator");
  errno = 0;
  char* end = nullptr;
  unsigned long node = std::strtoul(value.c_str(), &end, 10);
  if (end != value.c_str() + sep || errno != 0)
    return Status::Corruption("server advertisement: bad node id");
  return static_cast<sim::NodeId>(node);
}

}  // namespace diesel::etcd
