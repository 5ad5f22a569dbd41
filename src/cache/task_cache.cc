#include "cache/task_cache.h"

#include <algorithm>

#include "core/chunk_format.h"
#include "net/fault_injector.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/calibration.h"

namespace diesel::cache {
namespace {

constexpr uint64_t kPeerRequestBytes = 96;

/// Registry mirrors of TaskCacheStats, resolved once. The struct duplicates
/// the stats_ fields rather than replacing them so existing callers of
/// stats() keep exact per-instance numbers while the registry aggregates
/// process-wide.
struct CacheCounters {
  obs::Counter& local_hits;
  obs::Counter& peer_hits;
  obs::Counter& chunk_loads;
  obs::Counter& evictions;
  obs::Counter& failovers;
  obs::Counter& breaker_opens;
  obs::Counter& node_recoveries;
  obs::Counter& corruptions;
  obs::Gauge& bytes_cached;
};

CacheCounters& Counters() {
  static CacheCounters c{
      obs::Metrics().GetCounter("cache.local_hits"),
      obs::Metrics().GetCounter("cache.peer_hits"),
      obs::Metrics().GetCounter("cache.chunk_loads"),
      obs::Metrics().GetCounter("cache.evictions"),
      obs::Metrics().GetCounter("cache.failovers"),
      obs::Metrics().GetCounter("cache.breaker_opens"),
      obs::Metrics().GetCounter("cache.node_recoveries"),
      obs::Metrics().GetCounter("cache.corruptions_detected"),
      obs::Metrics().GetGauge("cache.bytes_cached"),
  };
  return c;
}

/// Registry mirrors of the prefetch-facing cache counters. Issue-side
/// accounting (issued/completed/cancelled) lives in the scheduler; the cache
/// sees the read side (hit/late) and the eviction side (wasted).
struct PrefetchCacheCounters {
  obs::Counter& evicted_bytes;
  obs::Gauge& pinned_chunks;
  obs::Counter& hits;
  obs::Counter& late;
  obs::Counter& wasted;
  obs::Histo& lead_time_ns;
  obs::Histo& late_stall_ns;
};

PrefetchCacheCounters& PfCounters() {
  static PrefetchCacheCounters c{
      obs::Metrics().GetCounter("cache.evicted_bytes"),
      obs::Metrics().GetGauge("cache.pinned_chunks"),
      obs::Metrics().GetCounter("prefetch.hit"),
      obs::Metrics().GetCounter("prefetch.late"),
      obs::Metrics().GetCounter("prefetch.wasted"),
      obs::Metrics().GetHistogram("prefetch.lead_time_ns"),
      obs::Metrics().GetHistogram("prefetch.late_stall_ns"),
  };
  return c;
}

/// 1 while the node's breaker is open, 0 once it has recovered.
obs::Gauge& BreakerGauge(sim::NodeId node) {
  return obs::Metrics().GetGauge("cache.breaker.state",
                                 {{"node", "n" + std::to_string(node)}});
}

/// Registry mirrors of the elastic-membership counters.
struct MembershipCacheCounters {
  obs::Counter& migrated_chunks =
      obs::Metrics().GetCounter("membership.migrated_chunks");
  obs::Counter& migrated_bytes =
      obs::Metrics().GetCounter("membership.migrated_bytes");
  obs::Counter& reown_chunks =
      obs::Metrics().GetCounter("membership.reown_chunks");
  obs::Counter& reown_skipped =
      obs::Metrics().GetCounter("cache.reown_skipped");
};

MembershipCacheCounters& MemCounters() {
  static MembershipCacheCounters c;
  return c;
}

/// Registry mirrors of the cross-task shared-tier counters. These are the
/// process-wide aggregates; the per-tenant labeled series live in
/// tenant::CacheFabric. discarded_bytes is charged even with no tier
/// attached, so the teardown waste tenancy recovers stays visible when
/// tenancy is disabled.
struct TenantCacheCounters {
  obs::Counter& adopted_chunks =
      obs::Metrics().GetCounter("tenant.adopted_chunks");
  obs::Counter& adopted_bytes =
      obs::Metrics().GetCounter("tenant.adopted_bytes");
  obs::Counter& demoted_chunks =
      obs::Metrics().GetCounter("tenant.demoted_chunks");
  obs::Counter& demoted_bytes =
      obs::Metrics().GetCounter("tenant.demoted_bytes");
  obs::Counter& discarded_bytes =
      obs::Metrics().GetCounter("tenant.discarded_bytes");
};

TenantCacheCounters& TnCounters() {
  static TenantCacheCounters c;
  return c;
}

/// Critical-path attribution for the hot read path: every phase a
/// GetFile/GetFiles request can spend virtual time in, observed as
/// durations into "read.path.*" histograms. total_ns is observed once per
/// request and additionally captures tail exemplars (the request's
/// cache.get_file / cache.get_files span id) so `dlcmd tail` can resolve a
/// p99 read straight to its span tree. parse_ns exists for
/// completeness: header parsing charges no virtual time under the current
/// calibration, so it records zeros — the histogram documents that the
/// phase is free, not that it is unmeasured.
struct ReadPathMetrics {
  obs::Histo& total_ns = obs::Metrics().GetHistogram("read.path.total_ns");
  obs::Histo& local_ns = obs::Metrics().GetHistogram("read.path.local_ns");
  obs::Histo& owner_wait_ns =
      obs::Metrics().GetHistogram("read.path.owner_wait_ns");
  obs::Histo& rpc_ns = obs::Metrics().GetHistogram("read.path.rpc_ns");
  obs::Histo& device_ns = obs::Metrics().GetHistogram("read.path.device_ns");
  obs::Histo& parse_ns = obs::Metrics().GetHistogram("read.path.parse_ns");
  obs::Histo& slice_ns = obs::Metrics().GetHistogram("read.path.slice_ns");
  obs::Histo& backoff_ns = obs::Metrics().GetHistogram("read.path.backoff_ns");
  obs::Histo& degraded_ns =
      obs::Metrics().GetHistogram("read.path.degraded_ns");
  obs::Counter& retries = obs::Metrics().GetCounter("read.path.retries");
};

ReadPathMetrics& RpMetrics() {
  static ReadPathMetrics m;
  return m;
}

/// Observes one read request's end-to-end latency into read.path.total_ns
/// on every exit, errors included, with the request span's id riding along
/// as a tail exemplar (span.id() is 0 without a tracer, which captures
/// nothing).
class RequestLatency {
 public:
  RequestLatency(const sim::VirtualClock& clock, const obs::ScopedSpan& span)
      : clock_(clock), span_(span), start_(clock.now()) {}
  ~RequestLatency() {
    RpMetrics().total_ns.Observe(static_cast<double>(clock_.now() - start_),
                                 span_.id(), static_cast<double>(clock_.now()));
  }

  RequestLatency(const RequestLatency&) = delete;
  RequestLatency& operator=(const RequestLatency&) = delete;

 private:
  const sim::VirtualClock& clock_;
  const obs::ScopedSpan& span_;
  const Nanos start_;
};

}  // namespace

TaskCache::TaskCache(net::Fabric& fabric, core::DieselServer& server,
                     const core::MetadataSnapshot& snapshot,
                     TaskRegistry& registry, TaskCacheOptions options)
    : fabric_(fabric), server_(server), snapshot_(snapshot),
      registry_(registry), options_(options) {
  owner_nodes_ = registry_.Nodes();
  for (sim::NodeId node : owner_nodes_) {
    partitions_.emplace(node, std::make_unique<NodePartition>());
  }
}

void TaskCache::EstablishConnections() {
  std::vector<net::EndpointId> masters = registry_.Masters();
  for (const net::EndpointId& client : registry_.Members()) {
    for (const net::EndpointId& master : masters) {
      if (client == master) continue;
      fabric_.connections().Connect(client, master);
      ++connections_opened_;
    }
  }
}

Result<sim::NodeId> TaskCache::OwnerNodeOfChunk(size_t chunk_index) const {
  if (membership_.load(std::memory_order_acquire) != nullptr) {
    // Attached mode: the ownership snapshot moves in lock-step with the
    // migration records, so a chunk's owner and its in-flight move are
    // always consistent under one lock.
    std::lock_guard<std::mutex> lock(migration_mutex_);
    if (chunk_index < chunk_owner_.size()) return chunk_owner_[chunk_index];
    return Status::FailedPrecondition("chunk index past ownership map");
  }
  if (owner_nodes_.empty())
    return Status::FailedPrecondition("no task nodes registered");
  return owner_nodes_[chunk_index % owner_nodes_.size()];
}

void TaskCache::AttachMembership(membership::MembershipTable& table) {
  {
    std::lock_guard<std::mutex> lock(migration_mutex_);
    chunk_owner_.resize(snapshot_.chunks().size(), sim::kInvalidNode);
    for (size_t ci = 0; ci < chunk_owner_.size(); ++ci) {
      auto owner = table.OwnerOfChunk(ci);
      if (owner.ok()) chunk_owner_[ci] = *owner;
    }
  }
  membership_.store(&table, std::memory_order_release);
  table.Subscribe(this);
}

std::vector<sim::NodeId> TaskCache::CurrentOwnerNodes() const {
  if (membership::MembershipTable* t =
          membership_.load(std::memory_order_acquire)) {
    return t->ActiveNodes();
  }
  return owner_nodes_;
}

TaskCache::NodePartition& TaskCache::PartitionFor(sim::NodeId node) {
  std::lock_guard<std::mutex> lock(partitions_mutex_);
  auto it = partitions_.find(node);
  if (it == partitions_.end()) {
    it = partitions_.emplace(node, std::make_unique<NodePartition>()).first;
  }
  return *it->second;
}

const TaskCache::NodePartition* TaskCache::FindPartition(
    sim::NodeId node) const {
  std::lock_guard<std::mutex> lock(partitions_mutex_);
  auto it = partitions_.find(node);
  return it == partitions_.end() ? nullptr : it->second.get();
}

Nanos TaskCache::last_transition_end() const {
  std::lock_guard<std::mutex> lock(migration_mutex_);
  return last_transition_end_;
}

size_t TaskCache::migrations_in_flight() const {
  std::lock_guard<std::mutex> lock(migration_mutex_);
  return migrations_.size();
}

size_t TaskCache::PickVictimLocked(const NodePartition& part,
                                   bool ignore_pins) const {
  const EvictionOracle* oracle = nullptr;
  {
    std::lock_guard<std::mutex> lock(oracle_mutex_);
    oracle = oracle_;
  }
  const uint64_t cursor = cursor_.load(std::memory_order_relaxed);
  size_t best = static_cast<size_t>(-1);
  uint64_t best_dist = 0;
  for (size_t i = 0; i < part.fifo.size(); ++i) {
    size_t ci = part.fifo[i];
    if (!ignore_pins && part.pinned.count(ci) > 0) continue;
    if (oracle == nullptr) return i;  // FIFO: first unpinned entry
    uint64_t dist = oracle->NextAccessAfter(ci, cursor);
    // A dead chunk (kNever) always wins; ties keep the earliest-inserted.
    if (dist == EvictionOracle::kNever) return i;
    if (best == static_cast<size_t>(-1) || dist > best_dist) {
      best = i;
      best_dist = dist;
    }
  }
  return best;
}

TaskCache::CachedChunk TaskCache::RemoveAtLocked(NodePartition& part,
                                                 size_t pos) {
  auto node = part.chunks.extract(part.fifo[pos]);
  part.fifo.erase(part.fifo.begin() + static_cast<ptrdiff_t>(pos));
  CachedChunk& cc = node.mapped();
  const uint64_t size = cc.buffer.size();
  const bool wasted = cc.prefetched && !cc.accessed;
  part.bytes -= size;
  Counters().bytes_cached.Add(-static_cast<double>(size));
  if (wasted) PfCounters().wasted.Inc();
  std::lock_guard<std::mutex> slock(stats_mutex_);
  stats_.bytes_cached -= size;
  if (wasted) ++stats_.prefetch_wasted;
  return std::move(cc);
}

void TaskCache::EvictAtLocked(NodePartition& part, size_t victim) {
  const uint64_t size = RemoveAtLocked(part, victim).buffer.size();
  Counters().evictions.Inc();
  PfCounters().evicted_bytes.Inc(size);
  std::lock_guard<std::mutex> slock(stats_mutex_);
  ++stats_.evictions;
  stats_.evicted_bytes += size;
}

TaskCache::InsertResult TaskCache::InsertChunk(sim::NodeId owner,
                                               size_t chunk_index,
                                               CachedChunk chunk) {
  NodePartition& part = PartitionFor(owner);
  std::lock_guard<std::mutex> lock(part.mutex);
  if (part.chunks.count(chunk_index) > 0) return InsertResult::kAlreadyResident;
  const uint64_t size = chunk.buffer.size();
  const bool prefetched = chunk.prefetched;
  if (options_.per_node_capacity_bytes != 0) {
    while (part.bytes + size > options_.per_node_capacity_bytes &&
           !part.fifo.empty()) {
      size_t victim = PickVictimLocked(part);
      if (victim == static_cast<size_t>(-1)) break;  // everything is pinned
      EvictAtLocked(part, victim);
    }
    if (part.bytes + size > options_.per_node_capacity_bytes) {
      if (prefetched) return InsertResult::kDenied;
      // Demand outranks prefetch: when only pinned chunks are left, a
      // foreground miss still gets cached — otherwise a pin-saturated
      // partition would send every further read of this chunk back to the
      // backend for as long as the pins are held.
      while (part.bytes + size > options_.per_node_capacity_bytes &&
             !part.fifo.empty()) {
        EvictAtLocked(part, PickVictimLocked(part, /*ignore_pins=*/true));
      }
      if (part.bytes + size > options_.per_node_capacity_bytes)
        return InsertResult::kDenied;  // single blob exceeds capacity
    }
  }
  part.chunks.emplace(chunk_index, std::move(chunk));
  part.fifo.push_back(chunk_index);
  part.bytes += size;
  Counters().bytes_cached.Add(static_cast<double>(size));
  std::lock_guard<std::mutex> slock(stats_mutex_);
  stats_.bytes_cached += size;
  return InsertResult::kInserted;
}

Result<SharedBytes> TaskCache::FetchChunkBlob(sim::VirtualClock& clock,
                                              sim::NodeId reader,
                                              size_t chunk_index) {
  const core::ChunkId& id = snapshot_.chunks().at(chunk_index);
  const Nanos device0 = clock.now();
  DIESEL_ASSIGN_OR_RETURN(
      SharedBytes blob,
      options_.retry.RunResult<SharedBytes>(
          clock, [&]() -> Result<SharedBytes> {
            return server_.ReadChunk(clock, reader, snapshot_.dataset(), id);
          }));
  RpMetrics().device_ns.Observe(static_cast<double>(clock.now() - device0));
  if (fabric_.tracer() != nullptr) {
    obs::ScopedSpan::NoteCurrent(
        fabric_.tracer(), clock.now(),
        "phase.device_read ns=" + std::to_string(clock.now() - device0));
  }
  const Nanos parse0 = clock.now();
  DIESEL_ASSIGN_OR_RETURN(core::ChunkView view, core::ChunkView::Parse(*blob));
  RpMetrics().parse_ns.Observe(static_cast<double>(clock.now() - parse0));
  // The fabric never sees payloads, so scheduled corruption events land
  // here, on the chunk-fetch path; detection is CRC-driven in
  // ChunkBuffer::Slice.
  // The blob is the store's shared buffer, so corruption is copy-on-write:
  // only this fetch sees the flipped byte and the stored chunk stays clean.
  if (net::FaultInjector* inj = fabric_.fault_injector()) {
    if (inj->ConsumeChunkCorruption(chunk_index)) {
      Bytes corrupt = *blob;
      inj->CorruptPayload(corrupt, view.header_len(), chunk_index);
      blob = ShareBytes(std::move(corrupt));
      obs::ScopedSpan::NoteCurrent(
          fabric_.tracer(), clock.now(),
          "fault.corrupt chunk=" + std::to_string(chunk_index));
      obs::Flight().Record(obs::FlightEventKind::kFault, clock.now(),
                           "payload corruption: chunk " +
                               std::to_string(chunk_index));
    }
  }
  return blob;
}

Result<TaskCache::Fill> TaskCache::FillChunk(sim::VirtualClock& clock,
                                             sim::NodeId owner,
                                             size_t chunk_index,
                                             const core::FileMeta* verify,
                                             bool prefetched) {
  Fill fill;
  CachedChunk local;
  SharedCacheTier* tier = shared_tier_.load(std::memory_order_acquire);
  if (tier != nullptr) {
    // Warm start: another task already holds these bytes — adopt the shared
    // buffer (a refcount bump plus the simulated transfer), CRC memo
    // included, instead of re-reading the object store. Adoptions are NOT
    // chunk_loads: the backend never saw this request.
    auto adopted = tier->Adopt(clock, owner, chunk_index);
    if (adopted.ok()) {
      local.buffer = std::move(adopted).value();
      fill.adopted = true;
      if (verify != nullptr) {
        Result<core::FileSlice> content = local.buffer.Slice(*verify);
        if (content.ok()) {
          fill.slice = std::move(content).value();
        } else {
          // Adopted copy is corrupt: purge it from the shared tier so other
          // adopters stop paying the transfer + scan + refetch for the same
          // bad blob, then fall through to a fresh backend fetch.
          tier->Invalidate(chunk_index, local.buffer);
          CountCorruption();
          fill.adopted = false;
        }
      }
    }
  }
  if (fill.adopted) {
    TnCounters().adopted_chunks.Inc();
    TnCounters().adopted_bytes.Inc(local.buffer.size());
    std::lock_guard<std::mutex> slock(stats_mutex_);
    ++stats_.adopted_chunks;
    stats_.adopted_bytes += local.buffer.size();
  } else {
    // Pull the whole chunk from the server. A verified fill slices from this
    // local copy (immune to concurrent eviction); a corrupted fetch is caught
    // by the slice CRC and re-fetched once (injected corruption is one-shot,
    // so the second copy is clean; a persistently corrupt chunk still
    // surfaces Corruption).
    for (int fetch = 0;; ++fetch) {
      DIESEL_ASSIGN_OR_RETURN(SharedBytes blob,
                              FetchChunkBlob(clock, owner, chunk_index));
      local = CachedChunk{};
      local.buffer = core::ChunkBuffer::Wrap(std::move(blob));
      if (verify == nullptr) break;
      Result<core::FileSlice> content = local.buffer.Slice(*verify);
      if (content.ok()) {
        fill.slice = std::move(content).value();
        break;
      }
      if (fetch > 0) return content.status();
      CountCorruption();
    }
    Counters().chunk_loads.Inc();
    {
      std::lock_guard<std::mutex> slock(stats_mutex_);
      ++stats_.chunk_loads;
    }
    // Publish the shared buffer (its memo holds the file just verified).
    if (tier != nullptr) {
      tier->Publish(owner, chunk_index, local.buffer, clock.now());
    }
  }
  fill.bytes = local.buffer.size();
  local.prefetched = prefetched;
  if (prefetched) local.ready_at = clock.now();
  fill.insert = InsertChunk(owner, chunk_index, std::move(local));
  return fill;
}

void TaskCache::CountCorruption() {
  Counters().corruptions.Inc();
  std::lock_guard<std::mutex> slock(stats_mutex_);
  ++stats_.corruptions_detected;
}

Result<core::FileSlice> TaskCache::ReadFromPartition(sim::VirtualClock& clock,
                                                     sim::NodeId owner,
                                                     size_t chunk_index,
                                                     const core::FileMeta& meta) {
  NodePartition& part = PartitionFor(owner);
  core::ChunkBuffer corrupt_evicted;
  {
    std::lock_guard<std::mutex> lock(part.mutex);
    auto it = part.chunks.find(chunk_index);
    if (it != part.chunks.end()) {
      CachedChunk& cc = it->second;
      if (cc.ready_at > clock.now()) {
        // The fill is still in flight at this read's arrival: wait out the
        // remainder. Only the first read after the fill scores it.
        Nanos stall = cc.ready_at - clock.now();
        clock.AdvanceTo(cc.ready_at);
        RpMetrics().owner_wait_ns.Observe(static_cast<double>(stall));
        if (fabric_.tracer() != nullptr) {
          obs::ScopedSpan::NoteCurrent(
              fabric_.tracer(), clock.now(),
              "phase.owner_wait ns=" + std::to_string(stall));
        }
        if (cc.prefetched && !cc.accessed) {
          PfCounters().late.Inc();
          PfCounters().late_stall_ns.Observe(static_cast<double>(stall));
          std::lock_guard<std::mutex> slock(stats_mutex_);
          ++stats_.prefetch_late;
        }
      } else if (cc.prefetched && !cc.accessed) {
        PfCounters().hits.Inc();
        PfCounters().lead_time_ns.Observe(
            static_cast<double>(clock.now() - cc.ready_at));
        std::lock_guard<std::mutex> slock(stats_mutex_);
        ++stats_.prefetch_hits;
      }
      cc.accessed = true;
      Result<core::FileSlice> sliced = cc.buffer.Slice(meta);
      if (!sliced.status().IsCorruption()) return sliced;
      // Cached copy failed its checksum: evict it and fall through to a
      // fresh fill below. Remember the blob so the shared tier's copy — the
      // same bytes if this chunk was ever published/adopted — can be
      // invalidated too.
      const auto pos = std::find(part.fifo.begin(), part.fifo.end(),
                                 chunk_index) - part.fifo.begin();
      corrupt_evicted = RemoveAtLocked(part, pos).buffer;
      CountCorruption();
    }
  }
  SharedCacheTier* tier = shared_tier_.load(std::memory_order_acquire);
  if (tier != nullptr && corrupt_evicted) {
    // The evicted copy's bytes may also be resident in the shared tier
    // (publish is a refcount share): purge them so the adopt below — and
    // every other task's — doesn't hand the corruption straight back.
    tier->Invalidate(chunk_index, corrupt_evicted);
  }
  DIESEL_ASSIGN_OR_RETURN(
      Fill fill, FillChunk(clock, owner, chunk_index, &meta,
                           /*prefetched=*/false));
  return std::move(fill.slice);
}

Result<Nanos> TaskCache::PreloadPartition(sim::NodeId node,
                                          std::span<const size_t> chunks,
                                          Nanos start, uint64_t* loaded) {
  std::vector<sim::VirtualClock> clocks(kPreloadStreams,
                                        sim::VirtualClock(start));
  for (size_t ci : chunks) {
    if (ChunkResident(ci)) continue;
    DIESEL_RETURN_IF_ERROR(FillChunk(sim::EarliestStream(clocks), node, ci,
                                     /*verify=*/nullptr,
                                     /*prefetched=*/false)
                               .status());
    if (loaded != nullptr) ++*loaded;
  }
  return sim::LatestStream(clocks);
}

Result<Nanos> TaskCache::Preload(Nanos start) {
  // Each master pulls its partition with kPreloadStreams concurrent
  // fetch streams; nodes work in parallel so the makespan is the slowest
  // node's finish time.
  Nanos makespan = start;
  for (sim::NodeId node : CurrentOwnerNodes()) {
    DIESEL_ASSIGN_OR_RETURN(Nanos finish,
                            PreloadPartition(node, OwnedChunkList(node), start));
    makespan = std::max(makespan, finish);
  }
  return makespan;
}

Result<core::FileSlice> TaskCache::GetFile(sim::VirtualClock& clock,
                                           net::EndpointId requester,
                                           const core::FileMeta& meta) {
  DIESEL_ASSIGN_OR_RETURN(std::vector<core::FileSlice> one,
                          GetFiles(clock, requester, {&meta, 1}));
  return std::move(one.front());
}

Result<std::vector<core::FileSlice>> TaskCache::GetFiles(
    sim::VirtualClock& clock, net::EndpointId requester,
    std::span<const core::FileMeta> metas) {
  std::vector<core::FileSlice> out(metas.size());
  if (metas.empty()) return out;
  obs::ScopedSpan span(fabric_.tracer(),
                       metas.size() == 1 ? "cache.get_file" : "cache.get_files",
                       clock, requester.node);
  if (metas.size() > 1) span.Note("files=" + std::to_string(metas.size()));
  RequestLatency latency(clock, span);

  // Resolve every file's serving owner up front, grouping remote files per
  // owner node (std::map: deterministic owner order). The serving owner
  // indirects through in-flight migrations: until a move lands, the old
  // owner keeps answering for the chunk (a rescale never stalls reads).
  std::vector<BatchSub> local;
  std::map<sim::NodeId, std::vector<BatchSub>> remote;
  for (size_t i = 0; i < metas.size(); ++i) {
    size_t chunk_index = snapshot_.ChunkIndex(metas[i].chunk);
    if (chunk_index == static_cast<size_t>(-1))
      return Status::NotFound("chunk not in snapshot: " +
                              metas[i].chunk.Encoded());
    DIESEL_ASSIGN_OR_RETURN(sim::NodeId owner,
                            ServingOwner(chunk_index, clock.now()));
    if (span.active()) {
      span.Note("phase.snapshot_lookup chunk=" + std::to_string(chunk_index) +
                " owner=n" + std::to_string(owner));
    }
    (owner == requester.node ? local : remote[owner])
        .push_back(BatchSub{i, chunk_index});
  }

  // Scatter-gather: the local group and each remote owner's group run on
  // their own clocks from the caller's now, so they are in flight together
  // (the NICs and memory buses queue whatever overlaps). A group's
  // follow-ups stay on its clock: retries, backoff and breaker, the
  // retry-alone reads a multi-get leaves and the degraded reads. Groups
  // share no chunks and no breaker, so none sees another's virtual future.
  // Group order is local, then owners by node id.
  auto serve_local = [&](sim::VirtualClock& group) -> Status {
    for (const BatchSub& sub : local) {
      DIESEL_ASSIGN_OR_RETURN(
          out[sub.pos], ReadLocal(group, requester.node, sub.chunk_index,
                                  metas[sub.pos], span));
    }
    return Status::Ok();
  };
  auto serve_owner = [&](sim::VirtualClock& group, sim::NodeId owner,
                         std::span<const BatchSub> subs) -> Status {
    std::vector<Result<core::FileSlice>> got(subs.size(),
                                             Status::Internal("unset"));
    const Status exchange =
        FetchFromOwner(group, requester, owner, subs, metas, got, span);
    for (size_t j = 0; j < subs.size(); ++j) {
      const core::FileMeta& meta = metas[subs[j].pos];
      if (subs.size() > 1 && !got[j].ok()) {
        // Left unserved by a multi-get: retry it alone. The batch of one
        // owns the breaker/degraded handling and reproduces any hard error
        // (e.g. persistent corruption) exactly as an unbatched read would.
        got[j] = GetFile(group, requester, meta);
      } else if (!exchange.ok()) {
        got[j] = DegradedRead(group, requester, meta, span);
      }
      DIESEL_ASSIGN_OR_RETURN(out[subs[j].pos], std::move(got[j]));
    }
    return Status::Ok();
  };
  sim::ScatterGather fan(clock);
  if (!local.empty()) {
    fan.Issue([&](sim::VirtualClock& group) { return serve_local(group); });
  }
  for (const auto& [owner, subs] : remote) {
    fan.Issue([&](sim::VirtualClock& group) {
      return serve_owner(group, owner, subs);
    });
  }
  DIESEL_RETURN_IF_ERROR(fan.Finish());
  return out;
}

Result<core::FileSlice> TaskCache::ReadLocal(sim::VirtualClock& clock,
                                             sim::NodeId node,
                                             size_t chunk_index,
                                             const core::FileMeta& meta,
                                             obs::ScopedSpan& span) {
  // Local partition: memory-bus copy.
  const Nanos local0 = clock.now();
  DIESEL_ASSIGN_OR_RETURN(core::FileSlice content,
                          ReadFromPartition(clock, node, chunk_index, meta));
  const Nanos slice0 = clock.now();
  clock.AdvanceTo(
      fabric_.cluster().node(node).membus().Serve(clock.now(), meta.length));
  RpMetrics().slice_ns.Observe(static_cast<double>(clock.now() - slice0));
  RpMetrics().local_ns.Observe(static_cast<double>(clock.now() - local0));
  Counters().local_hits.Inc();
  span.NoteAt(clock.now(), "cache.local_hit");
  if (span.active()) {
    span.NoteAt(clock.now(),
                "phase.slice ns=" + std::to_string(clock.now() - slice0));
  }
  std::lock_guard<std::mutex> lock(stats_mutex_);
  ++stats_.local_hits;
  return content;
}

Status TaskCache::FetchFromOwner(sim::VirtualClock& clock,
                                 net::EndpointId requester, sim::NodeId owner,
                                 std::span<const BatchSub> subs,
                                 std::span<const core::FileMeta> metas,
                                 std::vector<Result<core::FileSlice>>& got,
                                 obs::ScopedSpan& span) {
  const size_t k = subs.size();
  uint64_t resp_bytes = 0;
  for (const BatchSub& sub : subs) resp_bytes += metas[sub.pos].length;
  if (k > 1 && span.active()) {
    span.NoteAt(clock.now(), "multi_get owner=n" + std::to_string(owner) +
                                 " k=" + std::to_string(k));
  }

  // The owner sits behind a per-node circuit breaker: transient failures
  // retry with backoff; an unreachable owner opens the breaker (its in-RAM
  // partition is presumed lost) and the caller falls back.
  CircuitBreaker& breaker = BreakerFor(owner);
  const RetryPolicy& retry = options_.retry;
  const uint32_t max_attempts = std::max<uint32_t>(1, retry.max_attempts);
  const Nanos start = clock.now();
  Status last = Status::Unavailable("peer fetch not attempted");
  for (uint32_t attempt = 1; attempt <= max_attempts; ++attempt) {
    if (!breaker.AllowRequest(clock.now())) {
      return Status::Unavailable("circuit open: owner node " +
                                 std::to_string(owner));
    }
    const Nanos rpc0 = clock.now();
    if (attempt > 1) RpMetrics().retries.Inc();
    Status call = fabric_.CallBatch(
        clock, requester.node, owner, k, kPeerRequestBytes * k, resp_bytes,
        [&](Nanos arrival) {
          sim::VirtualClock peer(arrival);
          for (size_t j = 0; j < k; ++j) {
            const core::FileMeta& meta = metas[subs[j].pos];
            got[j] = ReadFromPartition(peer, owner, subs[j].chunk_index, meta);
            const Nanos slice0 = peer.now();
            peer.AdvanceTo(fabric_.cluster().node(owner).membus().Serve(
                peer.now(), meta.length));
            RpMetrics().slice_ns.Observe(
                static_cast<double>(peer.now() - slice0));
          }
          return peer.now();
        });
    RpMetrics().rpc_ns.Observe(static_cast<double>(clock.now() - rpc0));
    if (span.active()) {
      span.NoteAt(clock.now(), "phase.rpc attempt=" +
                                   std::to_string(attempt) + " ns=" +
                                   std::to_string(clock.now() - rpc0));
    }
    // A lone file the owner could not produce (its backend load was
    // unavailable) fails the call; in a multi-get it only leaves that file
    // unserved for the caller to retry alone.
    if (call.ok() && (k > 1 || !got[0].status().IsUnavailable())) {
      if (breaker.OnSuccess(clock.now()) ==
          CircuitBreaker::Transition::kRecovered) {
        span.NoteAt(clock.now(),
                    "breaker.recovered node=" + std::to_string(owner));
        obs::Flight().Record(obs::FlightEventKind::kBreaker, clock.now(),
                             "breaker recovered: n" + std::to_string(owner),
                             span.id());
        OnOwnerRecovered(owner, clock.now());
      }
      const uint64_t hits = static_cast<uint64_t>(std::count_if(
          got.begin(), got.end(), [](const auto& r) { return r.ok(); }));
      if (hits > 0) {
        Counters().peer_hits.Inc(hits);
        span.NoteAt(clock.now(), "cache.peer_hits=" + std::to_string(hits));
        std::lock_guard<std::mutex> lock(stats_mutex_);
        stats_.peer_hits += hits;
      }
      return Status::Ok();
    }
    // The exchange failed (drop/flap): every file in it failed at once.
    last = call.ok() ? got[0].status() : call;
    std::fill(got.begin(), got.end(), last);
    // A flap of the requester's own node also fails the call; that says
    // nothing about the owner, so only remote failures charge its breaker
    // (a held half-open probe slot must still report its outcome).
    if (fabric_.NodeAvailable(requester.node, clock.now()) ||
        breaker.state() == CircuitBreaker::State::kHalfOpen) {
      if (breaker.OnFailure(clock.now()) ==
          CircuitBreaker::Transition::kOpened) {
        // Owner presumed crashed: what it cached in RAM is gone.
        DropNode(owner);
        Counters().breaker_opens.Inc();
        BreakerGauge(owner).Set(1.0);
        span.NoteAt(clock.now(), "breaker.open node=" + std::to_string(owner));
        obs::Flight().Record(obs::FlightEventKind::kBreaker, clock.now(),
                             "breaker open: n" + std::to_string(owner),
                             span.id());
        std::lock_guard<std::mutex> lock(stats_mutex_);
        ++stats_.breaker_opens;
      }
    }
    if (attempt >= max_attempts) break;
    Nanos wait = retry.BackoffBefore(attempt);
    if (retry.deadline_budget != 0 &&
        clock.now() - start + wait > retry.deadline_budget) {
      break;
    }
    RpMetrics().backoff_ns.Observe(static_cast<double>(wait));
    if (span.active()) {
      span.NoteAt(clock.now(), "phase.backoff ns=" + std::to_string(wait));
    }
    clock.Advance(wait);
  }
  return last;
}

CircuitBreaker& TaskCache::BreakerFor(sim::NodeId node) {
  std::lock_guard<std::mutex> lock(breakers_mutex_);
  auto it = breakers_.find(node);
  if (it == breakers_.end())
    it = breakers_.try_emplace(node, options_.breaker).first;
  return it->second;
}

Result<core::FileSlice> TaskCache::DegradedRead(sim::VirtualClock& clock,
                                                net::EndpointId requester,
                                                const core::FileMeta& meta,
                                                obs::ScopedSpan& span) {
  Counters().failovers.Inc();
  span.NoteAt(clock.now(), "cache.degraded_read");
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.failovers;
  }
  const Nanos degraded0 = clock.now();
  DIESEL_ASSIGN_OR_RETURN(
      Bytes content,
      options_.retry.RunResult<Bytes>(clock, [&]() -> Result<Bytes> {
        return server_.ReadFile(clock, requester.node, snapshot_.dataset(),
                                meta.full_name);
      }));
  RpMetrics().degraded_ns.Observe(static_cast<double>(clock.now() - degraded0));
  if (span.active()) {
    span.NoteAt(clock.now(), "phase.degraded ns=" +
                                 std::to_string(clock.now() - degraded0));
  }
  return core::FileSlice::Own(std::move(content));
}

void TaskCache::OnOwnerRecovered(sim::NodeId owner, Nanos now) {
  Counters().node_recoveries.Inc();
  BreakerGauge(owner).Set(0.0);
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.node_recoveries;
  }
  if (options_.policy == CachePolicy::kOneshot) {
    // Chunk-granular re-own: repopulate the recovered node's partition on a
    // detached clock — the reload overlaps the requesters' continued reads,
    // which keep being served (degraded) until chunks come back. Chunks the
    // Belady oracle declares dead for the rest of the epoch are skipped:
    // bytes evicted during the outage that nobody will read again are not
    // worth re-owning.
    Result<Nanos> reload = ReownChunks(owner, OwnedChunkList(owner), now);
    (void)reload;
  }
}

std::vector<size_t> TaskCache::OwnedChunkList(sim::NodeId node) const {
  std::vector<size_t> mine;
  for (size_t ci = 0; ci < snapshot_.chunks().size(); ++ci) {
    auto owner = OwnerNodeOfChunk(ci);
    if (owner.ok() && *owner == node) mine.push_back(ci);
  }
  return mine;
}

Result<Nanos> TaskCache::ReownChunks(sim::NodeId node,
                                     const std::vector<size_t>& chunks,
                                     Nanos start) {
  const EvictionOracle* oracle = nullptr;
  {
    std::lock_guard<std::mutex> lock(oracle_mutex_);
    oracle = oracle_;
  }
  const uint64_t cursor = cursor_.load(std::memory_order_relaxed);
  std::vector<size_t> live;
  uint64_t skipped = 0;
  for (size_t ci : chunks) {
    if (oracle != nullptr &&
        oracle->NextAccessAfter(ci, cursor) == EvictionOracle::kNever) {
      ++skipped;
    } else {
      live.push_back(ci);
    }
  }
  uint64_t loaded = 0;
  DIESEL_ASSIGN_OR_RETURN(Nanos finish,
                          PreloadPartition(node, live, start, &loaded));
  if (loaded > 0) {
    MemCounters().reown_chunks.Inc(loaded);
    obs::Metrics()
        .GetCounter("cache.reown_chunks",
                    {{"node", "n" + std::to_string(node)}})
        .Inc(loaded);
  }
  if (skipped > 0) MemCounters().reown_skipped.Inc(skipped);
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    stats_.reown_chunks += loaded;
    stats_.reown_skipped += skipped;
  }
  return finish;
}

Result<sim::NodeId> TaskCache::ServingOwner(size_t chunk_index, Nanos now) {
  if (membership_.load(std::memory_order_acquire) == nullptr)
    return OwnerNodeOfChunk(chunk_index);
  sim::NodeId owner;
  sim::NodeId from = sim::kInvalidNode;
  {
    std::lock_guard<std::mutex> lock(migration_mutex_);
    if (chunk_index >= chunk_owner_.size())
      return Status::FailedPrecondition("chunk index past ownership map");
    owner = chunk_owner_[chunk_index];
    auto it = migrations_.find(chunk_index);
    if (it != migrations_.end()) {
      if (now < it->second.ready_at) return it->second.from;
      // The move landed: the new owner's copy is readable, so the source
      // copy is redundant from here on.
      from = it->second.from;
      migrations_.erase(it);
    }
  }
  if (from != sim::kInvalidNode) FinalizeMigration(chunk_index, from);
  return owner;
}

void TaskCache::FinalizeMigration(size_t chunk_index, sim::NodeId from) {
  NodePartition& part = PartitionFor(from);
  std::lock_guard<std::mutex> lock(part.mutex);
  const auto pos = std::find(part.fifo.begin(), part.fifo.end(), chunk_index);
  if (pos == part.fifo.end()) return;
  // Dropping the source copy is not an eviction (the chunk is still
  // resident, on its new owner) — only the byte accounting moves.
  RemoveAtLocked(part, pos - part.fifo.begin());
  if (part.pinned.erase(chunk_index) == 0) return;
  PfCounters().pinned_chunks.Add(-1.0);
  std::lock_guard<std::mutex> slock(stats_mutex_);
  --stats_.pinned_chunks;
}

void TaskCache::OnMembershipChange(const membership::MembershipChange& change) {
  using membership::ChangeKind;
  switch (change.kind) {
    case ChangeKind::kBootstrap: {
      // (Re)build the ownership snapshot; nothing is resident to move yet.
      membership::MembershipTable* table =
          membership_.load(std::memory_order_acquire);
      if (table == nullptr) return;
      std::lock_guard<std::mutex> lock(migration_mutex_);
      chunk_owner_.resize(snapshot_.chunks().size(), sim::kInvalidNode);
      for (size_t ci = 0; ci < chunk_owner_.size(); ++ci) {
        auto owner = table->OwnerOfChunk(ci);
        if (owner.ok()) chunk_owner_[ci] = *owner;
      }
      return;
    }
    case ChangeKind::kJoin:
    case ChangeKind::kRecover:
    case ChangeKind::kDrainStart:
    case ChangeKind::kCrash:
      if (change.kind == ChangeKind::kCrash) DropNode(change.node);
      MigrateForChange(change);
      return;
    case ChangeKind::kDrainComplete: {
      // Finalize every move the drained node still sourced (the copies on
      // the new owners carry their own ready_at, so a too-early read just
      // waits out the remainder), then drop whatever it still held.
      std::vector<size_t> finalize;
      {
        std::lock_guard<std::mutex> lock(migration_mutex_);
        for (auto it = migrations_.begin(); it != migrations_.end();) {
          if (it->second.from == change.node) {
            finalize.push_back(it->first);
            it = migrations_.erase(it);
          } else {
            ++it;
          }
        }
      }
      for (size_t ci : finalize) FinalizeMigration(ci, change.node);
      DropNode(change.node);
      return;
    }
  }
}

void TaskCache::MigrateForChange(const membership::MembershipChange& change) {
  membership::MembershipTable* table =
      membership_.load(std::memory_order_acquire);
  if (table == nullptr) return;
  const bool crash = change.kind == membership::ChangeKind::kCrash;
  const Nanos start = change.at;

  struct Move {
    size_t ci;
    sim::NodeId from;
    sim::NodeId to;
  };
  std::vector<Move> moves;
  {
    std::lock_guard<std::mutex> lock(migration_mutex_);
    chunk_owner_.resize(snapshot_.chunks().size(), sim::kInvalidNode);
    for (size_t ci = 0; ci < chunk_owner_.size(); ++ci) {
      auto owner = table->OwnerOfChunk(ci);
      if (!owner.ok()) continue;
      if (*owner != chunk_owner_[ci]) {
        moves.push_back(Move{ci, chunk_owner_[ci], *owner});
        chunk_owner_[ci] = *owner;
      }
    }
    if (crash) {
      // In-flight moves touching the crashed node are dead: its source
      // copies are gone and copies headed to it fell with the partition.
      for (auto it = migrations_.begin(); it != migrations_.end();) {
        if (it->second.from == change.node || it->second.to == change.node) {
          it = migrations_.erase(it);
        } else {
          ++it;
        }
      }
    }
  }

  if (!moves.empty()) {
    obs::Flight().Record(obs::FlightEventKind::kMigration, start,
                         std::string(membership::ToString(change.kind)) +
                             " n" + std::to_string(change.node) + ": " +
                             std::to_string(moves.size()) + " chunks move");
  }

  Nanos end = start;
  if (crash) {
    // Unplanned: the moved chunks have no live source. Under the oneshot
    // policy their new owners re-own them from the backend on detached
    // clocks (skipping oracle-dead chunks); on-demand tasks just fault them
    // in on first read.
    if (options_.policy == CachePolicy::kOneshot) {
      std::map<sim::NodeId, std::vector<size_t>> by_dest;
      for (const Move& m : moves) by_dest[m.to].push_back(m.ci);
      for (const auto& [dest, chunks] : by_dest) {
        Result<Nanos> finish = ReownChunks(dest, chunks, start);
        if (finish.ok()) end = std::max(end, *finish);
      }
    }
  } else {
    // Planned: stream every resident moved chunk from its old owner to the
    // new one on per-destination migration clocks. The source keeps serving
    // reads until the move's arrival (migration record); a chunk that is
    // not resident (or whose transfer fails) simply faults in at the new
    // owner on demand.
    std::map<sim::NodeId, std::vector<sim::VirtualClock>> dest_streams;
    for (const Move& m : moves) {
      // Share the source buffer instead of copying it: the migration "send"
      // is charged on the fabric below, but host-side the move is a refcount
      // bump, and outstanding slices keep the old bytes alive regardless of
      // which partition drops its reference first; the CRC memo moves too.
      CachedChunk moved;
      {
        NodePartition& from = PartitionFor(m.from);
        std::lock_guard<std::mutex> lock(from.mutex);
        auto it = from.chunks.find(m.ci);
        if (it != from.chunks.end()) moved.buffer = it->second.buffer;
      }
      if (!moved.buffer.valid()) continue;
      auto& clocks = dest_streams[m.to];
      if (clocks.empty()) {
        clocks.assign(kPreloadStreams, sim::VirtualClock(start));
      }
      sim::VirtualClock& stream = sim::EarliestStream(clocks);
      const uint64_t size = moved.buffer.size();
      obs::ScopedSpan span(fabric_.tracer(), "membership.migrate", stream,
                           m.from);
      span.Note("chunk=" + std::to_string(m.ci) + " to=n" +
                std::to_string(m.to));
      Status call = fabric_.Call(stream, m.from, m.to, kPeerRequestBytes,
                                 size, [](Nanos arrival) { return arrival; });
      if (!call.ok()) continue;
      const Nanos ready = stream.now();
      moved.ready_at = ready;
      InsertResult r = InsertChunk(m.to, m.ci, std::move(moved));
      if (r == InsertResult::kDenied) continue;
      if (r == InsertResult::kInserted) {
        {
          std::lock_guard<std::mutex> lock(migration_mutex_);
          migrations_[m.ci] = MigrationRec{m.from, m.to, ready};
        }
        MemCounters().migrated_chunks.Inc();
        MemCounters().migrated_bytes.Inc(size);
        {
          std::lock_guard<std::mutex> slock(stats_mutex_);
          ++stats_.migrated_chunks;
          stats_.migrated_bytes += size;
        }
        end = std::max(end, ready);
      } else {
        // Already resident at the destination: the copy on the old owner is
        // redundant right away.
        FinalizeMigration(m.ci, m.from);
      }
      // Carry any live pin over to the chunk's new home.
      bool transfer = false;
      {
        std::lock_guard<std::mutex> lock(pin_mutex_);
        auto it = pin_home_.find(m.ci);
        if (it != pin_home_.end() && it->second == m.from) {
          it->second = m.to;
          transfer = true;
        }
      }
      if (transfer) {
        bool held = false;
        {
          NodePartition& from = PartitionFor(m.from);
          std::lock_guard<std::mutex> lock(from.mutex);
          held = from.pinned.erase(m.ci) > 0;
        }
        if (held) {
          NodePartition& to = PartitionFor(m.to);
          std::lock_guard<std::mutex> lock(to.mutex);
          to.pinned.insert(m.ci);
        }
      }
    }
  }
  {
    std::lock_guard<std::mutex> lock(migration_mutex_);
    last_transition_end_ = std::max(last_transition_end_, end);
  }
}

double TaskCache::HitRatio() const {
  size_t resident = 0;
  std::lock_guard<std::mutex> plock(partitions_mutex_);
  for (const auto& [node, part] : partitions_) {
    std::lock_guard<std::mutex> lock(part->mutex);
    resident += part->chunks.size();
  }
  size_t total = snapshot_.chunks().size();
  return total == 0 ? 1.0 : static_cast<double>(resident) /
                            static_cast<double>(total);
}

void TaskCache::DropPartitionLocked(NodePartition& part) {
  // Newest first, so each removal pops the fifo's tail. Prefetched chunks
  // that never served a read die wasted; pins on the lost partition are
  // released (the chunks they protected are gone — a pin must never outlive
  // its chunk, or recovery would wedge on a full partition).
  while (!part.fifo.empty()) RemoveAtLocked(part, part.fifo.size() - 1);
  if (!part.pinned.empty()) {
    PfCounters().pinned_chunks.Add(-static_cast<double>(part.pinned.size()));
    std::lock_guard<std::mutex> slock(stats_mutex_);
    stats_.pinned_chunks -= part.pinned.size();
    part.pinned.clear();
  }
}

void TaskCache::DropNode(sim::NodeId node) {
  NodePartition* part = nullptr;
  {
    std::lock_guard<std::mutex> plock(partitions_mutex_);
    auto it = partitions_.find(node);
    if (it == partitions_.end()) return;
    part = it->second.get();
  }
  std::lock_guard<std::mutex> lock(part->mutex);
  DropPartitionLocked(*part);
}

void TaskCache::DropAll() {
  std::lock_guard<std::mutex> plock(partitions_mutex_);
  for (auto& [node, part] : partitions_) {
    std::lock_guard<std::mutex> lock(part->mutex);
    DropPartitionLocked(*part);
  }
}

void TaskCache::AttachSharedTier(SharedCacheTier* tier) {
  shared_tier_.store(tier, std::memory_order_release);
}

uint64_t TaskCache::Teardown(Nanos now) {
  SharedCacheTier* tier = shared_tier_.load(std::memory_order_acquire);
  uint64_t demoted_chunks = 0;
  uint64_t demoted_bytes = 0;
  uint64_t discarded_bytes = 0;
  std::lock_guard<std::mutex> plock(partitions_mutex_);
  // Deterministic demote order (node, then chunk index): the shared tier's
  // admission policy may evict on every offer, so the iteration order is
  // part of the simulation's reproducible behavior.
  std::vector<sim::NodeId> nodes;
  nodes.reserve(partitions_.size());
  for (const auto& [node, part] : partitions_) nodes.push_back(node);
  std::sort(nodes.begin(), nodes.end());
  for (sim::NodeId node : nodes) {
    NodePartition& part = *partitions_.at(node);
    std::lock_guard<std::mutex> lock(part.mutex);
    std::vector<size_t> chunks;
    chunks.reserve(part.chunks.size());
    for (const auto& [ci, cc] : part.chunks) chunks.push_back(ci);
    std::sort(chunks.begin(), chunks.end());
    for (size_t ci : chunks) {
      const CachedChunk& cc = part.chunks.at(ci);
      uint64_t kept = 0;
      if (tier != nullptr) kept = tier->Demote(node, ci, cc.buffer, now);
      if (kept > 0) {
        ++demoted_chunks;
        demoted_bytes += kept;
      } else {
        discarded_bytes += cc.buffer.size();
      }
    }
    DropPartitionLocked(part);
  }
  if (demoted_chunks > 0) {
    TnCounters().demoted_chunks.Inc(demoted_chunks);
    TnCounters().demoted_bytes.Inc(demoted_bytes);
  }
  if (discarded_bytes > 0) TnCounters().discarded_bytes.Inc(discarded_bytes);
  {
    std::lock_guard<std::mutex> slock(stats_mutex_);
    stats_.demoted_chunks += demoted_chunks;
    stats_.demoted_bytes += demoted_bytes;
    stats_.discarded_bytes += discarded_bytes;
  }
  return demoted_bytes;
}

void TaskCache::InstallEvictionOracle(const EvictionOracle* oracle) {
  std::lock_guard<std::mutex> lock(oracle_mutex_);
  oracle_ = oracle;
}

void TaskCache::SetEpochCursor(uint64_t position) {
  cursor_.store(position, std::memory_order_relaxed);
}

void TaskCache::Pin(size_t chunk_index) {
  auto owner = OwnerNodeOfChunk(chunk_index);
  if (!owner.ok()) return;
  // Ownership can move between Pin and Unpin (rescale), so the pin's home
  // partition is recorded; migration re-points it when the chunk moves.
  {
    std::lock_guard<std::mutex> lock(pin_mutex_);
    auto it = pin_home_.find(chunk_index);
    if (it != pin_home_.end()) return;  // already pinned (or stale no-op)
    pin_home_[chunk_index] = owner.value();
  }
  NodePartition& part = PartitionFor(owner.value());
  std::lock_guard<std::mutex> lock(part.mutex);
  if (!part.pinned.insert(chunk_index).second) return;
  PfCounters().pinned_chunks.Add(1.0);
  std::lock_guard<std::mutex> slock(stats_mutex_);
  ++stats_.pinned_chunks;
}

void TaskCache::Unpin(size_t chunk_index) {
  sim::NodeId home = sim::kInvalidNode;
  {
    std::lock_guard<std::mutex> lock(pin_mutex_);
    auto it = pin_home_.find(chunk_index);
    if (it == pin_home_.end()) return;
    home = it->second;
    pin_home_.erase(it);
  }
  NodePartition& part = PartitionFor(home);
  std::lock_guard<std::mutex> lock(part.mutex);
  // A dropped partition already released its pins; erase==0 means exactly
  // that, and the gauge must not be decremented twice.
  if (part.pinned.erase(chunk_index) == 0) return;
  PfCounters().pinned_chunks.Add(-1.0);
  std::lock_guard<std::mutex> slock(stats_mutex_);
  --stats_.pinned_chunks;
}

bool TaskCache::ChunkResident(size_t chunk_index) const {
  auto owner = OwnerNodeOfChunk(chunk_index);
  if (!owner.ok()) return false;
  const NodePartition* part = FindPartition(owner.value());
  if (part == nullptr) return false;
  std::lock_guard<std::mutex> lock(part->mutex);
  return part->chunks.count(chunk_index) > 0;
}

Result<TaskCache::PrefetchOutcome> TaskCache::PrefetchChunk(
    sim::VirtualClock& stream, size_t chunk_index) {
  PrefetchOutcome out;
  DIESEL_ASSIGN_OR_RETURN(sim::NodeId owner, OwnerNodeOfChunk(chunk_index));
  if (ChunkResident(chunk_index)) {
    out.already_resident = true;
    return out;
  }
  obs::ScopedSpan span(fabric_.tracer(), "prefetch.fill", stream, owner);
  span.Note("chunk=" + std::to_string(chunk_index));
  // Background fills adopt too: a fill satisfied from the shared tier frees
  // the backend streams (and the prefetch byte budget drains at
  // peer-transfer speed instead of object-store speed).
  DIESEL_ASSIGN_OR_RETURN(
      Fill fill, FillChunk(stream, owner, chunk_index, /*verify=*/nullptr,
                           /*prefetched=*/true));
  if (fill.adopted) span.Note("tenant.adopted");
  out.inserted = fill.insert == InsertResult::kInserted;
  out.already_resident = fill.insert == InsertResult::kAlreadyResident;
  out.bytes = fill.bytes;
  out.ready_at = stream.now();
  return out;
}

TaskCacheStats TaskCache::stats() const {
  std::lock_guard<std::mutex> lock(stats_mutex_);
  return stats_;
}

namespace {

class Handle : public core::DatasetCacheInterface {
 public:
  Handle(TaskCache* cache, net::EndpointId ep) : cache_(cache), ep_(ep) {}
  Result<core::FileSlice> GetFile(sim::VirtualClock& clock,
                                  const core::FileMeta& meta) override {
    return cache_->GetFile(clock, ep_, meta);
  }

 private:
  TaskCache* cache_;
  net::EndpointId ep_;
};

}  // namespace

std::unique_ptr<core::DatasetCacheInterface> TaskCache::HandleFor(
    net::EndpointId client) {
  return std::make_unique<Handle>(this, client);
}

}  // namespace diesel::cache
