// Task-grained distributed cache (§4.2, Fig. 7).
//
// The training dataset is cached across the worker nodes of ONE task:
// chunks are partitioned over the master clients (one per physical node);
// non-master clients fetch through masters, so any file is one hop away.
// Node failures stay contained within the task, and because the cache loads
// whole >=4MB chunks from the backend, cold-start/recovery is fast
// (Fig. 11b) compared to per-file caching systems.
//
// Policies (§4.2 "Cache Policies"):
//  - oneshot:   Preload() pulls the full dataset right after registration
//               (overlapped with checkpoint loading in real tasks);
//  - on-demand: a miss pulls the owning chunk from the server, so epoch 1
//               is slower and later epochs are fully cached.
#pragma once

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "cache/registry.h"
#include "common/circuit_breaker.h"
#include "common/retry.h"
#include "core/chunk_buffer.h"
#include "core/client.h"
#include "core/server.h"
#include "core/snapshot.h"
#include "membership/membership.h"
#include "net/fabric.h"

namespace diesel::tenant {
class TenantBinding;
}  // namespace diesel::tenant

namespace diesel::cache {

enum class CachePolicy { kOnDemand, kOneshot };

/// Concurrent chunk-fetch streams per node during Preload (the oneshot
/// policy pulls with multiple I/O workers) and per destination node when a
/// rescale migrates chunks.
inline constexpr size_t kPreloadStreams = 8;

/// Clairvoyant eviction hook (src/prefetch): while an oracle is installed,
/// capacity eviction picks the resident chunk whose next access lies
/// farthest ahead in the epoch (Belady's MIN) instead of FIFO order. The
/// oracle is derived from the epoch's shuffle plan, which fixes the entire
/// access sequence the moment it is drawn (§4.3).
class EvictionOracle {
 public:
  /// NextAccessAfter result for a chunk that is dead for the rest of the
  /// epoch — always the preferred eviction victim.
  static constexpr uint64_t kNever = ~uint64_t{0};

  virtual ~EvictionOracle() = default;

  /// First position >= `cursor` (in the epoch's file order) at which
  /// `chunk_index` is accessed; kNever when there is none.
  virtual uint64_t NextAccessAfter(size_t chunk_index,
                                   uint64_t cursor) const = 0;
};

struct TaskCacheOptions {
  CachePolicy policy = CachePolicy::kOnDemand;
  /// Cap on cached bytes per node; 0 = unbounded. When full, FIFO eviction.
  uint64_t per_node_capacity_bytes = 0;
  /// Retry policy for peer and backend RPCs (rides out flaps/drops).
  RetryPolicy retry{};
  /// Per-owner-node circuit breaker: after `failure_threshold` consecutive
  /// peer failures the node is declared down (partition dropped) and reads
  /// fail over without paying the detection timeout each time. A read whose
  /// owner is unreachable degrades to a direct server read.
  CircuitBreakerConfig breaker{};
};

struct TaskCacheStats {
  uint64_t local_hits = 0;
  uint64_t peer_hits = 0;
  uint64_t chunk_loads = 0;     // backend chunk fetches (misses)
  uint64_t evictions = 0;
  uint64_t bytes_cached = 0;  // currently resident (insert - evict - drop)
  uint64_t failovers = 0;            // peer reads degraded to server reads
  uint64_t breaker_opens = 0;        // owner nodes declared down
  uint64_t node_recoveries = 0;      // owner nodes that came back
  uint64_t corruptions_detected = 0; // CRC mismatches caught and re-fetched
  uint64_t evicted_bytes = 0;        // total bytes removed by capacity eviction
  uint64_t pinned_chunks = 0;        // chunks currently pinned against eviction
  uint64_t prefetch_hits = 0;        // reads served by a fill that was ready
  uint64_t prefetch_late = 0;        // reads that waited out an in-flight fill
  uint64_t prefetch_wasted = 0;      // fills evicted/dropped before any read
  uint64_t migrated_chunks = 0;      // chunks streamed peer->peer on rescale
  uint64_t migrated_bytes = 0;       // bytes those migrations moved
  uint64_t reown_chunks = 0;         // chunks re-fetched from the backend
  uint64_t reown_skipped = 0;        // re-own skipped: oracle says dead
  uint64_t adopted_chunks = 0;       // misses warm-started from the shared tier
  uint64_t adopted_bytes = 0;        // bytes those adoptions avoided re-reading
  uint64_t demoted_chunks = 0;       // teardown chunks the shared tier retained
  uint64_t demoted_bytes = 0;        // bytes demoted into the shared tier
  uint64_t discarded_bytes = 0;      // teardown bytes no tier retained (waste)
};

class TaskCache : public membership::MembershipListener {
 public:
  /// `snapshot` provides the chunk list and file->chunk mapping; `server`
  /// is the backend for misses. Both must outlive the cache.
  TaskCache(net::Fabric& fabric, core::DieselServer& server,
            const core::MetadataSnapshot& snapshot, TaskRegistry& registry,
            TaskCacheOptions options);

  /// Open the p x (n-1) connection topology (lines 2 in Fig. 7): every
  /// client connects to every master except itself.
  void EstablishConnections();

  /// Directed connection opens performed by EstablishConnections — the
  /// quantity the paper counts as p x (n-1). (The fabric's ConnectionTable
  /// deduplicates the master<->master pairs into undirected edges.)
  size_t connections_opened() const { return connections_opened_; }

  /// Owner node of a chunk. With a membership table attached this is the
  /// consistent-hash ring owner (a join/leave moves only ~1/N of chunks);
  /// without one, the original static round-robin over the registration-time
  /// master nodes (perfectly balanced, and what every fixed-membership bench
  /// is calibrated against).
  Result<sim::NodeId> OwnerNodeOfChunk(size_t chunk_index) const;

  // ---- Elastic membership (src/membership) -------------------------------

  /// Switch ownership to `table`'s consistent-hash ring and subscribe for
  /// churn. Call once, after Bootstrap and before any joins/drains/crashes;
  /// attach the cache BEFORE any prefetch scheduler so migration runs first.
  /// The table must outlive the cache.
  void AttachMembership(membership::MembershipTable& table);

  /// Membership churn entry point (MembershipListener). Planned changes
  /// (join / drain-start / recover) stream the moved resident chunks from
  /// their old owner to the new one on detached migration clocks — demand
  /// reads keep hitting the old owner until a move lands, so nothing ever
  /// stalls. A crash drops the lost partition and (oneshot policy) re-owns
  /// the moved chunks from the backend; drain-complete finalizes the moves
  /// and drops whatever the drained node still held.
  void OnMembershipChange(const membership::MembershipChange& change) override;

  /// Virtual time the last membership transition fully landed (max over its
  /// migration arrivals / re-own finishes); 0 before any churn. The bench's
  /// recovery-time objective is measured against this.
  Nanos last_transition_end() const;

  /// Number of migrations recorded but not yet finalized (moves in flight).
  size_t migrations_in_flight() const;

  /// Oneshot policy: every master pulls its partition from the server.
  /// Loader clocks start at `start`; returns the time the slowest node
  /// finished (virtual makespan).
  Result<Nanos> Preload(Nanos start);

  /// Serve a file read for the client `requester` (Fig. 4 read flow) as a
  /// zero-copy FileSlice viewing the shared cached chunk blob. The slice
  /// holds a reference, so it stays valid after the chunk is evicted or
  /// migrated. A batch of one: GetFiles with a single file.
  Result<core::FileSlice> GetFile(sim::VirtualClock& clock,
                                  net::EndpointId requester,
                                  const core::FileMeta& meta);

  /// The read path (results in input order). Files are grouped by serving
  /// owner: local files are sliced from the requester's own partition, and
  /// each remote group of k files goes out as ONE exchange
  /// (Fabric::CallBatch), amortizing the per-RPC overhead across the group.
  /// A file a k >= 2 exchange leaves unserved is retried alone (k = 1); a
  /// lone file whose owner stays unreachable degrades to a server read.
  /// The groups are in flight together: each runs, follow-ups included, on
  /// its own clock from `clock`'s now, and `clock` resumes at the slowest.
  /// Every group is served even after one fails; the first failure in
  /// group order (local, then owners by node id) is returned.
  Result<std::vector<core::FileSlice>> GetFiles(
      sim::VirtualClock& clock, net::EndpointId requester,
      std::span<const core::FileMeta> metas);

  /// Fraction of chunks currently resident.
  double HitRatio() const;

  /// Simulate the failure of one task node: its partition is lost and, per
  /// the containment argument, the whole task must restart — Preload() then
  /// reloads the missing chunks and measures the recovery time.
  void DropNode(sim::NodeId node);
  void DropAll();

  // ---- Cross-task shared tier (src/tenant) -------------------------------

  /// Attach this task's binding on the cluster-wide shared tier
  /// (tenant::CacheFabric): misses first try to adopt an already-resident
  /// copy from another task, backend loads are published for later tasks,
  /// and Teardown demotes residency instead of dropping it. nullptr
  /// detaches. The fabric must outlive the cache.
  void AttachSharedTier(tenant::TenantBinding* tier);

  /// Orderly end of task: every resident chunk is offered to the shared
  /// tier (demote) before the partitions are cleared. Without a tier this
  /// is DropAll plus accounting — the discarded bytes are counted so the
  /// teardown waste is visible even when tenancy is disabled. DropAll /
  /// DropNode keep their crash semantics (nothing survives a crash).
  /// Returns the bytes the tier retained.
  uint64_t Teardown(Nanos now);

  // ---- Clairvoyant prefetch hooks (driven by prefetch::PrefetchScheduler) --

  /// Install the epoch's eviction oracle (nullptr restores FIFO). The oracle
  /// must stay alive until uninstalled; the prefetch scheduler owns it for
  /// the duration of the epoch.
  void InstallEvictionOracle(const EvictionOracle* oracle);

  /// Training progress in epoch file-order positions; Belady distances are
  /// measured from here.
  void SetEpochCursor(uint64_t position);

  /// Pin `chunk_index` against capacity eviction (in-flight or soon-needed
  /// fill). Pins nest per chunk: idempotent — a chunk is pinned or not.
  void Pin(size_t chunk_index);
  void Unpin(size_t chunk_index);

  /// Is the chunk resident in its owner's partition right now?
  bool ChunkResident(size_t chunk_index) const;

  struct PrefetchOutcome {
    bool inserted = false;          // capacity denied when false
    bool already_resident = false;  // raced with a foreground load
    uint64_t bytes = 0;             // blob size fetched
    Nanos ready_at = 0;             // virtual completion time of the fill
  };

  /// Background fill: fetch `chunk_index` into its owner partition charging
  /// `stream` (a detached prefetch-stream clock). The chunk becomes readable
  /// at the stream's finish time — a foreground read arriving earlier waits
  /// out the remainder (counted as prefetch.late); one arriving after is a
  /// clean prefetch.hit.
  Result<PrefetchOutcome> PrefetchChunk(sim::VirtualClock& stream,
                                        size_t chunk_index);

  TaskCacheStats stats() const;
  const TaskCacheOptions& options() const { return options_; }

  /// Adapter: per-client handle implementing DatasetCacheInterface.
  std::unique_ptr<core::DatasetCacheInterface> HandleFor(
      net::EndpointId client);

 private:
  struct CachedChunk {
    /// Shared immutable blob: reads hand out refcounted slices instead of
    /// copies, and eviction only drops the cache's reference.
    core::ChunkBuffer buffer;
    Nanos ready_at = 0;       // fill completion time (0: loaded in-line)
    bool prefetched = false;  // inserted by the prefetch scheduler
    bool accessed = false;    // served at least one read since insertion
  };

  struct NodePartition {
    mutable std::mutex mutex;
    std::unordered_map<size_t, CachedChunk> chunks;  // chunk index -> blob
    /// Insertion order; doubles as the deterministic victim-scan order.
    std::vector<size_t> fifo;
    std::unordered_set<size_t> pinned;
    uint64_t bytes = 0;
  };

  enum class InsertResult { kInserted, kAlreadyResident, kDenied };

  /// Fetch one chunk blob from the server (with retry): the store's shared
  /// buffer, or a corrupted private copy of it when the fabric's fault
  /// injector schedules a payload corruption for this fetch.
  Result<SharedBytes> FetchChunkBlob(sim::VirtualClock& clock,
                                     sim::NodeId reader, size_t chunk_index);

  CircuitBreaker& BreakerFor(sim::NodeId node);

  /// Peer-path fallback when the owner is unreachable: read the file range
  /// straight from the server (degraded but correct), counted as a failover.
  Result<core::FileSlice> DegradedRead(sim::VirtualClock& clock,
                                       net::EndpointId requester,
                                       const core::FileMeta& meta,
                                       obs::ScopedSpan& span);

  /// Owner came back from a flap: count it and, under the oneshot policy,
  /// re-own its partition chunk-by-chunk (charged to a detached clock — the
  /// reload overlaps the requester's work).
  void OnOwnerRecovered(sim::NodeId owner, Nanos now);

  /// Fill every chunk of `chunks` not yet resident into `node` (unverified)
  /// on kPreloadStreams closed-loop stream clocks starting at `start`: the
  /// earliest stream takes the next chunk. Returns the slowest stream's
  /// finish time; `loaded`, when given, counts the chunks filled.
  Result<Nanos> PreloadPartition(sim::NodeId node,
                                 std::span<const size_t> chunks, Nanos start,
                                 uint64_t* loaded = nullptr);

  /// PreloadPartition of `chunks` into `node` on detached stream clocks,
  /// skipping chunks the installed Belady oracle declares dead for the rest
  /// of the epoch (counted under reown_skipped — bytes the training loop
  /// will never read are not worth re-loading). Returns the finish time.
  Result<Nanos> ReownChunks(sim::NodeId node, const std::vector<size_t>& chunks,
                            Nanos start);

  /// The chunks `node` currently owns (ownership map at call time).
  std::vector<size_t> OwnedChunkList(sim::NodeId node) const;

  /// Nodes that own partitions right now (membership's active set, or the
  /// static registration-time master nodes).
  std::vector<sim::NodeId> CurrentOwnerNodes() const;

  /// Partition of `node`, created on first use (nodes can join mid-task).
  NodePartition& PartitionFor(sim::NodeId node);
  /// Read-only lookup; nullptr when the node never held a partition.
  const NodePartition* FindPartition(sim::NodeId node) const;

  /// Node a read of `chunk_index` should hit at `now`: the ring owner,
  /// indirected through any in-flight migration (the old owner keeps serving
  /// until the move's arrival time passes, then the move is finalized).
  Result<sim::NodeId> ServingOwner(size_t chunk_index, Nanos now);

  /// Erase the migration source copy once the move landed. Caller holds
  /// migration_mutex_; takes the source partition lock.
  void FinalizeMigration(size_t chunk_index, sim::NodeId from);

  /// Stream the resident moved chunks of a planned change to their new
  /// owners and schedule crash re-owns; updates chunk_owner_ and
  /// last_transition_end_.
  void MigrateForChange(const membership::MembershipChange& change);

  /// What FillChunk brought in.
  struct Fill {
    InsertResult insert = InsertResult::kDenied;
    bool adopted = false;      // from the shared tier, not the backend
    uint64_t bytes = 0;        // blob size
    core::FileSlice slice;     // the verified file, when one was given
  };

  /// The one way a chunk enters a partition (preload, re-own, demand miss,
  /// prefetch), charging `clock`: adopt the shared tier's copy, else fetch
  /// from the server, count the adoption or the chunk load, publish a
  /// fetched chunk with its CRC memo, and insert it into `owner`'s
  /// partition. With `verify` the file is sliced and CRC-checked first: a
  /// corrupt adopted copy is invalidated and fetched instead, a corrupt
  /// fetch is re-fetched once, and a chunk load counts only once verified.
  /// A `prefetched` fill is readable from `clock`'s finish time.
  Result<Fill> FillChunk(sim::VirtualClock& clock, sim::NodeId owner,
                         size_t chunk_index, const core::FileMeta* verify,
                         bool prefetched);

  /// Count one CRC mismatch caught on a cached, adopted or fetched copy.
  void CountCorruption();

  /// Slice one file out of the owner's partition (loads on miss). The slice
  /// is taken under the partition lock and holds its own reference on the
  /// blob, so concurrent eviction is safe.
  Result<core::FileSlice> ReadFromPartition(sim::VirtualClock& clock,
                                            sim::NodeId owner,
                                            size_t chunk_index,
                                            const core::FileMeta& meta);

  /// One file of a GetFiles request, resolved to its chunk.
  struct BatchSub {
    size_t pos = 0;          // index into metas/out
    size_t chunk_index = 0;  // resolved chunk of metas[pos]
  };

  /// Serve one file from the requester's own partition (loads on miss) and
  /// charge the memory-bus copy and the local hit.
  Result<core::FileSlice> ReadLocal(sim::VirtualClock& clock, sim::NodeId node,
                                    size_t chunk_index,
                                    const core::FileMeta& meta,
                                    obs::ScopedSpan& span);

  /// One-hop fetch of `subs` from remote `owner` as a k-file exchange
  /// (Fabric::CallBatch; k = 1 is a plain call), behind the owner's circuit
  /// breaker with retry and backoff. Returns Ok once an exchange landed:
  /// `got[j]` then holds each file's slice or error. Otherwise returns the
  /// last failure with every `got[j]` failed. At k = 1 an Unavailable slice
  /// fails the call; in a multi-get it only leaves that file unserved.
  Status FetchFromOwner(sim::VirtualClock& clock, net::EndpointId requester,
                        sim::NodeId owner, std::span<const BatchSub> subs,
                        std::span<const core::FileMeta> metas,
                        std::vector<Result<core::FileSlice>>& got,
                        obs::ScopedSpan& span);

  InsertResult InsertChunk(sim::NodeId owner, size_t chunk_index,
                           CachedChunk chunk);

  /// Victim-scan over `part.fifo` (deterministic order) with `part.mutex`
  /// held: FIFO picks the first unpinned entry; with an oracle installed,
  /// the unpinned chunk with the farthest next access wins (dead chunks —
  /// kNever — immediately). Returns fifo index, or SIZE_MAX when every
  /// resident chunk is pinned. `ignore_pins` widens the scan to pinned
  /// chunks (demand inserts outrank prefetch pins as a last resort).
  size_t PickVictimLocked(const NodePartition& part,
                          bool ignore_pins = false) const;

  /// The one removal of a resident chunk (lock held): erase fifo[pos] and
  /// its chunk, and charge the partition bytes, the bytes_cached stat and
  /// gauge, and prefetch.wasted for a fill that never served a read.
  /// Callers add only their own counters. Returns the removed chunk.
  CachedChunk RemoveAtLocked(NodePartition& part, size_t pos);

  /// Capacity eviction of fifo[victim] (lock held): RemoveAtLocked plus
  /// the eviction counters.
  void EvictAtLocked(NodePartition& part, size_t victim);

  /// Shared body of DropNode/DropAll (lock held): removes every chunk and
  /// releases the partition's pins.
  void DropPartitionLocked(NodePartition& part);

  net::Fabric& fabric_;
  core::DieselServer& server_;
  const core::MetadataSnapshot& snapshot_;
  TaskRegistry& registry_;
  TaskCacheOptions options_;
  std::vector<sim::NodeId> owner_nodes_;  // master nodes, partition targets
  mutable std::mutex partitions_mutex_;
  std::unordered_map<sim::NodeId, std::unique_ptr<NodePartition>> partitions_;
  /// Elastic membership (null = static round-robin ownership). Set once by
  /// AttachMembership before churn starts; hot paths read it lock-free.
  std::atomic<membership::MembershipTable*> membership_{nullptr};
  /// Cross-task shared tier (null = task-private caching, the seed
  /// behavior). Hot paths read it lock-free; it only engages on misses and
  /// teardown, so attached-but-idle costs nothing.
  std::atomic<tenant::TenantBinding*> shared_tier_{nullptr};
  /// In-flight move of one chunk: the old owner serves reads until
  /// ready_at, after which the source copy is finalized away.
  struct MigrationRec {
    sim::NodeId from = sim::kInvalidNode;
    sim::NodeId to = sim::kInvalidNode;
    Nanos ready_at = 0;
  };
  /// Guards migrations_, chunk_owner_ and last_transition_end_. Ordering:
  /// migration_mutex_ before any partition mutex, never the reverse.
  mutable std::mutex migration_mutex_;
  std::unordered_map<size_t, MigrationRec> migrations_;
  std::vector<sim::NodeId> chunk_owner_;  // ownership snapshot (attached mode)
  Nanos last_transition_end_ = 0;
  /// Where each live pin landed (ownership may move between Pin and Unpin).
  mutable std::mutex pin_mutex_;
  std::unordered_map<size_t, sim::NodeId> pin_home_;
  mutable std::mutex stats_mutex_;
  TaskCacheStats stats_;
  /// One breaker per owner node (std::map: stable references under insert).
  std::mutex breakers_mutex_;
  std::map<sim::NodeId, CircuitBreaker> breakers_;
  size_t connections_opened_ = 0;
  /// Belady state: the installed oracle (guarded — installs happen only at
  /// epoch boundaries, evictions read it under the partition lock) and the
  /// training cursor distances are measured from.
  mutable std::mutex oracle_mutex_;
  const EvictionOracle* oracle_ = nullptr;
  std::atomic<uint64_t> cursor_{0};
};

}  // namespace diesel::cache
