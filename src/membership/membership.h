// Elastic task membership: versioned node set + consistent-hash ownership.
//
// Generalizes the failure-recovery machinery (circuit breaker + chunk-
// granular re-own) into first-class churn: nodes join and leave the task
// on purpose (planned rescale) or by crashing, and every change bumps a
// monotonically versioned membership *epoch*. Ownership of chunks follows a
// consistent-hash ring over the active nodes (kv::HashRing), so one
// join/leave moves only ~1/N of the chunks instead of reshuffling the whole
// round-robin partition — the property FanStore-scale elasticity depends on.
//
// State machine per node:
//
//   planned drain:  kActive --StartDrain--> kDraining --CompleteDrain--> gone
//                   (announce: ownership moves off the node while it KEEPS
//                    serving its old partition; migrate: the cache streams
//                    resident chunks to the new owners; depart: the drained
//                    partition is dropped — no reader ever misses)
//
//   crash:          kActive --Crash--> kDown --Recover--> kActive
//                   (the partition is lost with the node; moved chunks are
//                    re-owned from the backend by their new owners)
//
// Listeners (the task cache, the prefetch scheduler) subscribe and are
// notified synchronously inside the mutating call, in subscription order —
// deterministic, so churn replays are bit-reproducible. Subscribe the cache
// before the scheduler: schedule recomputation reads the post-migration
// ownership.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <vector>

#include "common/status.h"
#include "common/units.h"
#include "kv/ring.h"
#include "sim/node.h"

namespace diesel::membership {

enum class NodeState { kActive, kDraining, kDown };

enum class ChangeKind {
  kBootstrap,      // initial node set installed (epoch 1)
  kJoin,           // new node owns its ring share from now on
  kDrainStart,     // planned leave announced: ownership moves, node serves
  kDrainComplete,  // drained node departs; its partition may be dropped
  kCrash,          // unplanned loss: ownership moves AND the partition is gone
  kRecover,        // crashed node rejoins (ownership moves back)
};

const char* ToString(ChangeKind kind);
const char* ToString(NodeState state);

struct MembershipChange {
  uint64_t epoch = 0;
  ChangeKind kind = ChangeKind::kBootstrap;
  sim::NodeId node = sim::kInvalidNode;
  Nanos at = 0;
};

class MembershipListener {
 public:
  virtual ~MembershipListener() = default;
  virtual void OnMembershipChange(const MembershipChange& change) = 0;
};

/// Virtual nodes per member on the ownership ring. More vnodes = tighter
/// balance (stddev ~ 1/sqrt(vnodes)) at O(log) lookup cost.
inline constexpr uint32_t kVnodesPerMember = 128;

/// The authoritative, versioned view of which nodes belong to the task and
/// which chunks they own. Thread-safe; mutations are serialized and each
/// bumps `epoch()` exactly once.
class MembershipTable {
 public:
  /// Install the initial node set (epoch 1). Must be called exactly once,
  /// before any other mutation.
  void Bootstrap(const std::vector<sim::NodeId>& nodes, Nanos at);

  // Each mutation returns the new epoch. Invalid transitions (joining a
  // present node, draining an absent one, ...) are no-ops returning the
  // current epoch — churn schedules may race a crash against a drain and
  // the table must stay consistent.
  uint64_t Join(sim::NodeId node, Nanos at);
  uint64_t StartDrain(sim::NodeId node, Nanos at);
  uint64_t CompleteDrain(sim::NodeId node, Nanos at);
  uint64_t Crash(sim::NodeId node, Nanos at);
  uint64_t Recover(sim::NodeId node, Nanos at);

  uint64_t epoch() const;
  size_t NumActive() const;
  /// kDown for nodes the table has never seen.
  NodeState StateOf(sim::NodeId node) const;
  /// Active nodes (ring members), ascending id.
  std::vector<sim::NodeId> ActiveNodes() const;
  /// Every membership change since Bootstrap, in epoch order.
  std::vector<MembershipChange> Log() const;

  /// Ring owner of `chunk_index` among the active nodes. Draining nodes are
  /// NOT owners (ownership moved at StartDrain); down nodes are not owners.
  Result<sim::NodeId> OwnerOfChunk(size_t chunk_index) const;

  /// Fraction of the hash space owned by `node` (balance inspection).
  double OwnedFraction(sim::NodeId node) const;

  /// Listeners are notified synchronously, in subscription order, after the
  /// table reflects the change. Must outlive the table.
  void Subscribe(MembershipListener* listener);

 private:
  uint64_t ApplyLocked(ChangeKind kind, sim::NodeId node, Nanos at,
                       std::unique_lock<std::mutex>& lock);

  mutable std::mutex mutex_;
  uint64_t epoch_ = 0;
  kv::HashRing ring_{kVnodesPerMember};
  std::map<sim::NodeId, NodeState> states_;
  std::vector<MembershipChange> log_;
  std::vector<MembershipListener*> listeners_;
};

}  // namespace diesel::membership
