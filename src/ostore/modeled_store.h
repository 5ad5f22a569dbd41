// ModeledStore: an ObjectStore decorator that charges virtual time.
//
// Wraps any backing store with (a) an RPC from the client node to the
// storage gateway node and (b) a storage-device charge sized to the bytes
// moved. With SsdClusterSpec() this reproduces the Table 2 block-size sweep.
#pragma once

#include <memory>

#include "net/fabric.h"
#include "ostore/object_store.h"
#include "sim/device.h"

namespace diesel::ostore {

class ModeledStore : public ObjectStore {
 public:
  /// `backing` must outlive this store. `storage_node` is the gateway.
  /// Reads and writes share `device_spec` unless a distinct `write_spec` is
  /// given (NVMe write buffering makes the write path faster, §6.2).
  ModeledStore(net::Fabric& fabric, sim::NodeId storage_node,
               sim::DeviceSpec device_spec, ObjectStore* backing)
      : ModeledStore(fabric, storage_node, device_spec, device_spec, backing) {}

  ModeledStore(net::Fabric& fabric, sim::NodeId storage_node,
               sim::DeviceSpec device_spec, sim::DeviceSpec write_spec,
               ObjectStore* backing)
      : fabric_(fabric), storage_node_(storage_node),
        device_(std::move(device_spec)), write_device_(std::move(write_spec)),
        backing_(backing) {
    const std::string node = "n" + std::to_string(storage_node_);
    device_.BindMetrics(node);
    write_device_.BindMetrics(node);
  }

  sim::Device& device() { return device_; }
  sim::Device& write_device() { return write_device_; }

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
    return backing_->Contains(key);
  }
  size_t NumObjects() const override { return backing_->NumObjects(); }
  uint64_t TotalBytes() const override { return backing_->TotalBytes(); }

 private:
  net::Fabric& fabric_;
  sim::NodeId storage_node_;
  sim::Device device_;
  sim::Device write_device_;
  ObjectStore* backing_;
};

}  // namespace diesel::ostore
