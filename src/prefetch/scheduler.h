// Clairvoyant prefetch scheduler for the task-grained cache.
//
// Turns the epoch's AccessSchedule into background chunk fills that run
// ahead of the training loop: per owner node, chunks are fetched in
// first-access order on a small set of detached stream clocks, bounded by a
// position lookahead and a byte budget so prefetch never floods the cache
// (capacity), the backend (stream cap) or the network (fills share the same
// simulated devices as foreground reads, so bandwidth contention is
// modeled, not assumed away). Filled and soon-needed chunks are pinned
// until the cursor passes their first access; with `belady_eviction` the
// schedule is also installed as the cache's eviction oracle, replacing FIFO
// with farthest-next-access (Belady's MIN).
//
// Fault behavior: a fill against a flapped owner is skipped
// (prefetch.skipped_down) and left to the foreground's on-demand path; a
// fill that starts and fails (retry budget exhausted, capacity denied)
// is cancelled and unpinned — pins can never outlive their epoch
// (FinishEpoch releases every remaining pin), so injected chaos degrades
// prefetch to on-demand instead of wedging the cache.
#pragma once

#include <deque>
#include <memory>
#include <mutex>
#include <vector>

#include "cache/task_cache.h"
#include "core/snapshot.h"
#include "membership/membership.h"
#include "net/fabric.h"
#include "prefetch/access_schedule.h"
#include "shuffle/shuffle.h"

namespace diesel::prefetch {

/// Concurrent background fill streams per owner node.
inline constexpr size_t kStreamsPerNode = 2;

/// Scheduler options. The byte budget is not one: pinned prefetch bytes per
/// node (in-flight fills plus resident chunks pinned ahead of their access)
/// are capped at HALF the cache's per_node_capacity_bytes, so pins can
/// never saturate the partition (unbounded when the cache is). A first fill
/// larger than the cap still goes through, or the scheduler would livelock.
struct PrefetchOptions {
  /// Fill chunks whose first access lies within this many file-order
  /// positions of the training cursor; SIZE_MAX = the whole epoch (the byte
  /// budget still bounds how far fills actually run ahead).
  size_t lookahead_files = static_cast<size_t>(-1);
  /// Install the schedule as the cache's Belady eviction oracle. Off keeps
  /// FIFO eviction (the "next-group"-style ablation arm).
  bool belady_eviction = true;
};

struct PrefetchSchedulerStats {
  uint64_t issued = 0;            // background fetches started
  uint64_t completed = 0;         // fetches that left the chunk resident
  uint64_t cancelled = 0;         // started but aborted (error / capacity)
  uint64_t skipped_resident = 0;  // schedule entries already cached
  uint64_t skipped_down = 0;      // owner flapped at issue time — not started
  uint64_t rescales = 0;          // membership epochs the schedule survived
  uint64_t retargeted = 0;        // pending fills re-bucketed to a new owner
};

class PrefetchScheduler : public membership::MembershipListener {
 public:
  /// All references must outlive the scheduler. `snapshot` must be the one
  /// the cache serves.
  PrefetchScheduler(cache::TaskCache& cache, net::Fabric& fabric,
                    const core::MetadataSnapshot& snapshot,
                    PrefetchOptions options);
  ~PrefetchScheduler();

  PrefetchScheduler(const PrefetchScheduler&) = delete;
  PrefetchScheduler& operator=(const PrefetchScheduler&) = delete;

  /// Install the epoch's plan: derives the AccessSchedule, (optionally)
  /// installs the Belady oracle, resets the per-node stream clocks to `now`
  /// and issues the initial fill window.
  void StartEpoch(const shuffle::ShufflePlan& plan, Nanos now);

  /// Advance the training cursor to `position` (epoch file-order index) at
  /// virtual time `now`: releases pins the cursor has passed and issues
  /// every fill the lookahead and budget newly admit. Called by the
  /// training loop (e.g. once per mini-batch).
  void Advance(size_t position, Nanos now);

  /// End of epoch: release every remaining pin and uninstall the oracle.
  /// Idempotent; also run by StartEpoch and the destructor.
  void FinishEpoch();

  /// Subscribe to membership churn: every epoch bump recomputes the fill
  /// schedule against the new chunk ownership. Attach the cache to the same
  /// table FIRST — the scheduler re-buckets against post-migration
  /// ownership. The table must outlive the scheduler.
  void AttachMembership(membership::MembershipTable& table);

  /// Membership epoch boundary (MembershipListener): pending fills are
  /// re-bucketed to their new owner nodes (first-access order preserved),
  /// live pins follow their chunks, and surviving stream clocks carry over
  /// so in-flight work is never double-counted — `issued == completed +
  /// cancelled` holds across any churn sequence.
  void OnMembershipChange(const membership::MembershipChange& change) override;

  /// The current epoch's schedule (nullptr between epochs).
  const AccessSchedule* schedule() const;

  PrefetchSchedulerStats stats() const;
  const PrefetchOptions& options() const { return options_; }

 private:
  struct PinRec {
    size_t chunk = 0;
    uint64_t first_access = 0;
    uint64_t bytes = 0;  // budget charge (0 for already-resident pins)
  };

  struct NodeState {
    sim::NodeId node = sim::kInvalidNode;
    std::vector<size_t> fill_order;  // owned chunks, first-access order
    size_t next = 0;                 // fill_order cursor
    std::vector<sim::VirtualClock> streams;
    std::deque<PinRec> pins;  // released as the cursor passes first_access
    uint64_t outstanding_bytes = 0;
  };

  void AdvanceLocked(size_t position, Nanos now);
  void IssueFillsLocked(size_t position, Nanos now);
  void RescaleLocked(Nanos now);

  cache::TaskCache& cache_;
  net::Fabric& fabric_;
  const core::MetadataSnapshot& snapshot_;
  PrefetchOptions options_;
  std::vector<uint64_t> chunk_bytes_;  // payload estimate per chunk

  mutable std::mutex mutex_;
  bool active_ = false;
  std::unique_ptr<AccessSchedule> schedule_;
  std::vector<NodeState> nodes_;
  PrefetchSchedulerStats stats_;
  size_t last_position_ = 0;  // latest Advance cursor (rescales resume here)
};

}  // namespace diesel::prefetch
