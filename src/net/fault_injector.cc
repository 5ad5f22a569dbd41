#include "net/fault_injector.h"

#include <utility>

#include "common/hash.h"

namespace diesel::net {
namespace {

/// Uniform double in [0, 1) from a full-avalanche hash of (seed, src, dst,
/// now). Pure: the same query always rolls the same value.
double RollFor(uint64_t seed, sim::NodeId src, sim::NodeId dst, Nanos now) {
  uint64_t link = (static_cast<uint64_t>(src) << 32) |
                  (static_cast<uint64_t>(dst) + 1);
  uint64_t h = Mix64(seed ^ Mix64(link) ^ Mix64(now + 0x9E3779B97F4A7C15ULL));
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

}  // namespace

FaultInjector::FaultInjector(FaultPlan plan)
    : plan_(std::move(plan)),
      flap_fired_(plan_.node_flaps.size(), false),
      corruption_used_(plan_.corrupt_chunk_fetches.size(), false) {}

bool FaultInjector::NodeDown(sim::NodeId node, Nanos now) const {
  for (const NodeFlap& f : plan_.node_flaps) {
    if (f.node == node && now >= f.down_at && now < f.up_at) return true;
  }
  return false;
}

bool FaultInjector::ShouldDropRpc(sim::NodeId src, sim::NodeId dst,
                                  Nanos now) {
  if (plan_.rpc_drop_prob <= 0.0) return false;
  if (RollFor(plan_.seed, src, dst, now) >= plan_.rpc_drop_prob) return false;
  std::lock_guard<std::mutex> lock(mutex_);
  ++stats_.rpc_drops;
  return true;
}

Nanos FaultInjector::ExtraLatency(Nanos now) {
  Nanos extra = 0;
  for (const LatencySpike& s : plan_.latency_spikes) {
    if (now >= s.start && now < s.end) extra += s.extra;
  }
  if (extra > 0) {
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.latency_spike_hits;
  }
  return extra;
}

bool FaultInjector::ConsumeChunkCorruption(size_t chunk_index) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (size_t i = 0; i < plan_.corrupt_chunk_fetches.size(); ++i) {
    if (plan_.corrupt_chunk_fetches[i] == chunk_index && !corruption_used_[i]) {
      corruption_used_[i] = true;
      ++stats_.corruptions_injected;
      return true;
    }
  }
  return false;
}

void FaultInjector::CorruptPayload(Bytes& blob, uint32_t header_len,
                                   size_t chunk_index) const {
  if (blob.size() <= header_len) return;
  size_t payload = blob.size() - header_len;
  size_t at = header_len +
              Mix64(plan_.seed ^ Mix64(chunk_index + 1)) % payload;
  blob[at] ^= 0xA5;
}

void FaultInjector::FireFlaps(
    Nanos now, const std::function<void(sim::NodeId)>& on_fire) {
  // Collect under the lock, fire outside it (on_fire takes fabric locks).
  std::vector<sim::NodeId> fired;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (size_t i = 0; i < plan_.node_flaps.size(); ++i) {
      if (!flap_fired_[i] && now >= plan_.node_flaps[i].down_at) {
        flap_fired_[i] = true;
        ++stats_.flaps_fired;
        fired.push_back(plan_.node_flaps[i].node);
      }
    }
  }
  for (sim::NodeId n : fired) on_fire(n);
}

void FaultInjector::CountDownNodeRejection() {
  std::lock_guard<std::mutex> lock(mutex_);
  ++stats_.down_node_rejections;
}

FaultInjectorStats FaultInjector::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

}  // namespace diesel::net
