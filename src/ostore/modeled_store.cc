#include "ostore/modeled_store.h"

namespace diesel::ostore {
namespace {

constexpr uint64_t kRequestOverheadBytes = 64;

// Backing stores take a clock but the modeled wrapper charges all time
// itself; hand them a scratch clock so they stay time-free.
sim::VirtualClock& ScratchClock() {
  thread_local sim::VirtualClock clock;
  return clock;
}

}  // namespace

Status ModeledStore::Put(sim::VirtualClock& clock, sim::NodeId client,
                         const std::string& key, SharedBytes data) {
  Status op_status;
  DIESEL_RETURN_IF_ERROR(fabric_.Call(
      clock, client, storage_node_, data->size() + kRequestOverheadBytes,
      kRequestOverheadBytes, [&](Nanos arrival) {
        op_status = backing_->Put(ScratchClock(), client, key, data);
        return write_device_.Serve(arrival, data->size());
      }));
  return op_status;
}

Result<SharedBytes> ModeledStore::Get(sim::VirtualClock& clock,
                                      sim::NodeId client,
                                      const std::string& key) {
  Result<SharedBytes> result = Status::Internal("unset");
  DIESEL_RETURN_IF_ERROR(fabric_.Call(
      clock, client, storage_node_, kRequestOverheadBytes,
      kRequestOverheadBytes, [&](Nanos arrival) {
        result = backing_->Get(ScratchClock(), client, key);
        uint64_t bytes = result.ok() ? result.value()->size() : 0;
        return device_.Serve(arrival, bytes);
      }));
  if (result.ok() && !result.value()->empty()) {
    // Response payload crosses the client NIC on the way back.
    Nanos t = fabric_.cluster().node(client).nic().Serve(
        clock.now(), result.value()->size());
    clock.AdvanceTo(t);
  }
  return result;
}

Result<Bytes> ModeledStore::GetRange(sim::VirtualClock& clock,
                                     sim::NodeId client,
                                     const std::string& key, uint64_t offset,
                                     uint64_t len) {
  Result<Bytes> result = Status::Internal("unset");
  DIESEL_RETURN_IF_ERROR(fabric_.Call(
      clock, client, storage_node_, kRequestOverheadBytes,
      kRequestOverheadBytes, [&](Nanos arrival) {
        result = backing_->GetRange(ScratchClock(), client, key, offset, len);
        uint64_t bytes = result.ok() ? result.value().size() : 0;
        return device_.Serve(arrival, bytes);
      }));
  if (result.ok() && !result.value().empty()) {
    Nanos t = fabric_.cluster().node(client).nic().Serve(clock.now(),
                                                         result.value().size());
    clock.AdvanceTo(t);
  }
  return result;
}

Status ModeledStore::Delete(sim::VirtualClock& clock, sim::NodeId client,
                            const std::string& key) {
  Status op_status;
  DIESEL_RETURN_IF_ERROR(fabric_.Call(
      clock, client, storage_node_, kRequestOverheadBytes,
      kRequestOverheadBytes, [&](Nanos arrival) {
        op_status = backing_->Delete(ScratchClock(), client, key);
        return device_.Serve(arrival, 0);
      }));
  return op_status;
}

Result<std::vector<std::string>> ModeledStore::List(sim::VirtualClock& clock,
                                                    sim::NodeId client,
                                                    const std::string& prefix) {
  Result<std::vector<std::string>> result = Status::Internal("unset");
  DIESEL_RETURN_IF_ERROR(fabric_.Call(
      clock, client, storage_node_, kRequestOverheadBytes,
      kRequestOverheadBytes, [&](Nanos arrival) {
        result = backing_->List(ScratchClock(), client, prefix);
        uint64_t bytes = 0;
        if (result.ok()) {
          for (const auto& k : result.value()) bytes += k.size();
        }
        return device_.Serve(arrival, bytes);
      }));
  return result;
}

Result<uint64_t> ModeledStore::Size(sim::VirtualClock& clock,
                                    sim::NodeId client,
                                    const std::string& key) {
  Result<uint64_t> result = Status::Internal("unset");
  DIESEL_RETURN_IF_ERROR(fabric_.Call(
      clock, client, storage_node_, kRequestOverheadBytes,
      kRequestOverheadBytes, [&](Nanos arrival) {
        result = backing_->Size(ScratchClock(), client, key);
        return device_.Serve(arrival, 0);
      }));
  return result;
}

}  // namespace diesel::ostore
