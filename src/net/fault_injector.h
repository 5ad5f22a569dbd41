// Deterministic fault-injection plan for the RPC fabric.
//
// A FaultInjector attached to a Fabric turns a seeded, schedule-driven
// FaultPlan into observable failures on the simulated network:
//
//  - RPC drops: one drop probability for every inter-node RPC. The decision
//    for one (src, dst, virtual-time) triple is a pure hash of the plan
//    seed, so runs are bit-reproducible regardless of OS-thread
//    interleaving, and a retry after backoff (different virtual time)
//    re-rolls independently.
//  - Node flaps: a node is down for a virtual-time window [down_at, up_at)
//    and auto-recovers when the window passes — no manual RecoverNode needed.
//    When a flap first fires, the fabric tears down the node's connections so
//    topology counts stay truthful (ConnectionTable::DisconnectNode).
//  - Latency spikes: extra one-way wire latency during a window.
//  - Payload corruption: one-shot events that flip a byte in the next fetch
//    of a listed chunk. Applied by the cache layer's chunk-fetch path (the
//    fabric never sees payloads); detection is CRC-driven and the read is
//    re-fetched, closing the loop.
//
// Every injected fault is counted; tests assert the log against the plan and
// re-run the same seed to prove reproducibility.
#pragma once

#include <functional>
#include <mutex>
#include <vector>

#include "common/bytes.h"
#include "common/units.h"
#include "sim/calibration.h"
#include "sim/node.h"

namespace diesel::net {

/// Transient outage of one node over a virtual-time window.
struct NodeFlap {
  sim::NodeId node = sim::kInvalidNode;
  Nanos down_at = 0;
  Nanos up_at = 0;  // exclusive: the node serves again at up_at
};

/// Extra one-way wire latency during [start, end).
struct LatencySpike {
  Nanos start = 0;
  Nanos end = 0;
  Nanos extra = 0;
};

struct FaultPlan {
  uint64_t seed = 1;
  /// Drop probability applied to every inter-node RPC (loopback is exempt).
  double rpc_drop_prob = 0.0;
  std::vector<NodeFlap> node_flaps;
  std::vector<LatencySpike> latency_spikes;
  /// Chunk indices whose next fetch returns a corrupted payload (one-shot
  /// per entry; consumed by the cache layer via ConsumeChunkCorruption).
  std::vector<size_t> corrupt_chunk_fetches;
  /// Virtual time a caller spends detecting a dropped RPC or a flapped node
  /// (connect timeout — the libMemcached behaviour §5.1 describes).
  Nanos fault_detect_timeout = sim::kFaultDetectTimeout;
};

struct FaultInjectorStats {
  uint64_t rpc_drops = 0;
  uint64_t down_node_rejections = 0;
  uint64_t latency_spike_hits = 0;
  uint64_t corruptions_injected = 0;
  uint64_t flaps_fired = 0;
};

class FaultInjector {
 public:
  explicit FaultInjector(FaultPlan plan);

  const FaultPlan& plan() const { return plan_; }

  /// Is `node` inside an active flap window at `now`? Pure function of the
  /// plan — recovery is automatic once the window passes.
  bool NodeDown(sim::NodeId node, Nanos now) const;

  /// Roll the (deterministic) dice for one RPC on src->dst at `now`.
  /// Counts a drop when it hits.
  bool ShouldDropRpc(sim::NodeId src, sim::NodeId dst, Nanos now);

  /// Extra one-way wire latency at `now` (sums overlapping spikes); counts a
  /// hit when non-zero.
  Nanos ExtraLatency(Nanos now);

  /// One-shot: true exactly once per plan entry naming `chunk_index`.
  bool ConsumeChunkCorruption(size_t chunk_index);

  /// Flip one payload byte of `blob` past `header_len`, deterministically by
  /// seed and chunk index (helper for the cache layer's injection site).
  void CorruptPayload(Bytes& blob, uint32_t header_len,
                      size_t chunk_index) const;

  /// Invoke `on_fire(node)` once per flap whose window has begun by `now`
  /// (the fabric uses this to tear down the node's connections).
  void FireFlaps(Nanos now, const std::function<void(sim::NodeId)>& on_fire);

  void CountDownNodeRejection();

  FaultInjectorStats stats() const;

 private:
  FaultPlan plan_;
  mutable std::mutex mutex_;
  std::vector<bool> flap_fired_;
  std::vector<bool> corruption_used_;
  FaultInjectorStats stats_;
};

}  // namespace diesel::net
