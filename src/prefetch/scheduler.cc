#include "prefetch/scheduler.h"

#include <algorithm>

#include "obs/metrics.h"

namespace diesel::prefetch {
namespace {

struct SchedCounters {
  obs::Counter& issued = obs::Metrics().GetCounter("prefetch.issued");
  obs::Counter& completed = obs::Metrics().GetCounter("prefetch.completed");
  obs::Counter& cancelled = obs::Metrics().GetCounter("prefetch.cancelled");
  obs::Counter& skipped_resident =
      obs::Metrics().GetCounter("prefetch.skipped_resident");
  obs::Counter& skipped_down =
      obs::Metrics().GetCounter("prefetch.skipped_down");
  obs::Counter& rescales = obs::Metrics().GetCounter("prefetch.rescales");
  obs::Counter& retargeted = obs::Metrics().GetCounter("prefetch.retargeted");
  obs::Histo& queue_depth =
      obs::Metrics().GetHistogram("prefetch.queue_depth");
};

SchedCounters& Counters() {
  static SchedCounters c;
  return c;
}

}  // namespace

PrefetchScheduler::PrefetchScheduler(cache::TaskCache& cache,
                                     net::Fabric& fabric,
                                     const core::MetadataSnapshot& snapshot,
                                     PrefetchOptions options)
    : cache_(cache),
      fabric_(fabric),
      snapshot_(snapshot),
      options_(options) {
  if (options_.streams_per_node == 0) options_.streams_per_node = 1;
  // Payload estimate per chunk, for budget accounting before the real blob
  // size is known.
  chunk_bytes_.assign(snapshot_.chunks().size(), 0);
  for (size_t ci = 0; ci < chunk_bytes_.size(); ++ci) {
    for (uint32_t fi : snapshot_.FilesOfChunk(ci)) {
      chunk_bytes_[ci] += snapshot_.files()[fi].length;
    }
  }
}

PrefetchScheduler::~PrefetchScheduler() { FinishEpoch(); }

uint64_t PrefetchScheduler::EffectiveBudget() const {
  uint64_t base = options_.budget_bytes_per_node;
  if (base == 0) {
    // Inherit half the cache partition: pinned prefetch bytes may never
    // saturate capacity, or fills start getting denied (every resident chunk
    // pinned) and the cancelled chunks fall back to on-demand loads on the
    // critical path — worse than no prefetch at all.
    base = cache_.options().per_node_capacity_bytes / 2;
  }
  if (const BudgetGovernor* g = governor_.load(std::memory_order_acquire)) {
    return g->PrefetchBudgetBytes(base);
  }
  return base;
}

void PrefetchScheduler::SetBudgetGovernor(const BudgetGovernor* governor) {
  governor_.store(governor, std::memory_order_release);
}

void PrefetchScheduler::StartEpoch(const shuffle::ShufflePlan& plan,
                                   Nanos now) {
  FinishEpoch();
  std::lock_guard<std::mutex> lock(mutex_);
  schedule_ = std::make_unique<AccessSchedule>(
      AccessSchedule::Build(plan, snapshot_));

  // Group the epoch's chunks by owner node, keeping first-access order.
  nodes_.clear();
  std::vector<sim::NodeId> owners;
  std::vector<std::vector<size_t>> fills;
  for (size_t ci : schedule_->chunks_by_first_access()) {
    auto owner = cache_.OwnerNodeOfChunk(ci);
    if (!owner.ok()) continue;
    auto it = std::find(owners.begin(), owners.end(), *owner);
    size_t slot;
    if (it == owners.end()) {
      slot = owners.size();
      owners.push_back(*owner);
      fills.emplace_back();
    } else {
      slot = static_cast<size_t>(it - owners.begin());
    }
    fills[slot].push_back(ci);
  }
  nodes_.resize(owners.size());
  for (size_t i = 0; i < owners.size(); ++i) {
    nodes_[i].node = owners[i];
    nodes_[i].fill_order = std::move(fills[i]);
    nodes_[i].streams.assign(options_.streams_per_node,
                             sim::VirtualClock(now));
  }

  if (options_.belady_eviction) cache_.InstallEvictionOracle(schedule_.get());
  cache_.SetEpochCursor(0);
  active_ = true;
  AdvanceLocked(0, now);
}

void PrefetchScheduler::Advance(size_t position, Nanos now) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!active_) return;
  AdvanceLocked(position, now);
}

void PrefetchScheduler::AttachMembership(membership::MembershipTable& table) {
  table.Subscribe(this);
}

void PrefetchScheduler::OnMembershipChange(
    const membership::MembershipChange& change) {
  if (change.kind == membership::ChangeKind::kBootstrap) return;
  std::lock_guard<std::mutex> lock(mutex_);
  if (!active_) return;
  RescaleLocked(change.at);
}

void PrefetchScheduler::RescaleLocked(Nanos now) {
  Counters().rescales.Inc();
  ++stats_.rescales;

  // Everything not yet issued goes back in the pot; everything issued is
  // already accounted (completed or cancelled at issue time), so the
  // invariant needs no repair.
  std::vector<char> pending(chunk_bytes_.size(), 0);
  for (const NodeState& ns : nodes_) {
    for (size_t i = ns.next; i < ns.fill_order.size(); ++i) {
      pending[ns.fill_order[i]] = 1;
    }
  }

  // Collect the live pins; they follow their chunks to the new owners'
  // budget books. Deques must stay in first-access order for the release
  // scan, so they are re-distributed by a stable first-access sort.
  std::vector<PinRec> pins;
  for (NodeState& ns : nodes_) {
    for (const PinRec& p : ns.pins) pins.push_back(p);
  }
  std::stable_sort(pins.begin(), pins.end(),
                   [](const PinRec& a, const PinRec& b) {
                     return a.first_access < b.first_access;
                   });

  // Surviving nodes keep their stream clocks (in-flight fill tails stay
  // charged); new owners start fresh at `now`.
  std::vector<NodeState> old_nodes = std::move(nodes_);
  nodes_.clear();
  auto slot_for = [&](sim::NodeId node) -> NodeState& {
    for (NodeState& ns : nodes_) {
      if (ns.node == node) return ns;
    }
    nodes_.emplace_back();
    NodeState& ns = nodes_.back();
    ns.node = node;
    for (NodeState& old : old_nodes) {
      if (old.node == node) {
        ns.streams = std::move(old.streams);
        for (sim::VirtualClock& st : ns.streams) st.AdvanceTo(now);
        break;
      }
    }
    if (ns.streams.empty()) {
      ns.streams.assign(options_.streams_per_node, sim::VirtualClock(now));
    }
    return ns;
  };

  // Re-bucket pending fills by the post-migration owner, preserving
  // first-access order within each node.
  for (size_t ci : schedule_->chunks_by_first_access()) {
    if (pending[ci] == 0) continue;
    auto owner = cache_.OwnerNodeOfChunk(ci);
    if (!owner.ok()) continue;
    NodeState& ns = slot_for(*owner);
    ns.fill_order.push_back(ci);
    bool moved = true;
    for (const NodeState& old : old_nodes) {
      for (size_t i = old.next; i < old.fill_order.size(); ++i) {
        if (old.fill_order[i] == ci) {
          moved = old.node != *owner;
          break;
        }
      }
    }
    if (moved) {
      Counters().retargeted.Inc();
      ++stats_.retargeted;
    }
  }
  for (const PinRec& p : pins) {
    auto owner = cache_.OwnerNodeOfChunk(p.chunk);
    if (!owner.ok()) continue;
    NodeState& ns = slot_for(*owner);
    ns.pins.push_back(p);
    ns.outstanding_bytes += p.bytes;
  }

  // The new window opens immediately: fills the rescale newly admits are
  // issued from the current cursor.
  AdvanceLocked(last_position_, now);
}

void PrefetchScheduler::AdvanceLocked(size_t position, Nanos now) {
  last_position_ = position;
  cache_.SetEpochCursor(position);
  // Release pins the cursor has passed: once a chunk's first access is
  // behind us the Belady oracle (or FIFO age) decides its fate like any
  // other resident chunk.
  for (NodeState& ns : nodes_) {
    while (!ns.pins.empty() && ns.pins.front().first_access < position) {
      const PinRec& rec = ns.pins.front();
      cache_.Unpin(rec.chunk);
      ns.outstanding_bytes -= std::min(ns.outstanding_bytes, rec.bytes);
      ns.pins.pop_front();
    }
  }
  IssueFillsLocked(position, now);

  // Queue depth: streams whose fill tail extends past the foreground's now.
  uint64_t depth = 0;
  for (const NodeState& ns : nodes_) {
    for (const sim::VirtualClock& st : ns.streams) {
      if (st.now() > now) ++depth;
    }
  }
  Counters().queue_depth.Observe(static_cast<double>(depth));
}

void PrefetchScheduler::IssueFillsLocked(size_t position, Nanos now) {
  const uint64_t budget = EffectiveBudget();
  const size_t unlimited = static_cast<size_t>(-1);
  for (NodeState& ns : nodes_) {
    while (ns.next < ns.fill_order.size()) {
      const size_t ci = ns.fill_order[ns.next];
      const uint64_t fa = schedule_->FirstAccess(ci);
      if (options_.lookahead_files != unlimited &&
          fa > position + options_.lookahead_files) {
        break;  // beyond the lookahead window — revisit on a later Advance
      }
      const uint64_t est = chunk_bytes_[ci];
      // Budget gate: allow the first fill through even when a single chunk
      // exceeds the budget, otherwise the scheduler would livelock.
      if (budget != 0 && ns.outstanding_bytes > 0 &&
          ns.outstanding_bytes + est > budget) {
        break;
      }

      if (cache_.ChunkResident(ci)) {
        // Nothing to fetch; pin so capacity pressure from later fills can't
        // evict it before its access arrives. The pin still occupies cache
        // capacity, so it charges the budget like a fill.
        Counters().skipped_resident.Inc();
        ++stats_.skipped_resident;
        cache_.Pin(ci);
        ns.pins.push_back(PinRec{ci, fa, est});
        ns.outstanding_bytes += est;
        ++ns.next;
        continue;
      }

      // Earliest-finishing stream takes the fill.
      sim::VirtualClock* stream = &sim::EarliestStream(ns.streams);
      stream->AdvanceTo(now);

      if (!fabric_.NodeAvailable(ns.node, stream->now())) {
        // Owner is flapped: don't burn the retry budget in the background;
        // the foreground's on-demand path (with failover) covers this chunk.
        Counters().skipped_down.Inc();
        ++stats_.skipped_down;
        ++ns.next;
        continue;
      }

      cache_.Pin(ci);
      Counters().issued.Inc();
      ++stats_.issued;
      auto out = cache_.PrefetchChunk(*stream, ci);
      if (!out.ok() || (!out->inserted && !out->already_resident)) {
        // Fetch failed or capacity denied the insert: the fill is aborted
        // and the pin released, so the foreground path stays unobstructed.
        Counters().cancelled.Inc();
        ++stats_.cancelled;
        cache_.Unpin(ci);
        ++ns.next;
        continue;
      }
      Counters().completed.Inc();
      ++stats_.completed;
      ns.pins.push_back(PinRec{ci, fa, out->bytes});
      ns.outstanding_bytes += out->bytes;
      ++ns.next;
    }
  }
}

void PrefetchScheduler::FinishEpoch() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!active_ && nodes_.empty()) return;
  for (NodeState& ns : nodes_) {
    while (!ns.pins.empty()) {
      cache_.Unpin(ns.pins.front().chunk);
      ns.pins.pop_front();
    }
    ns.outstanding_bytes = 0;
  }
  nodes_.clear();
  if (options_.belady_eviction) cache_.InstallEvictionOracle(nullptr);
  active_ = false;
  // schedule_ stays alive so late inspector reads (schedule()) remain valid
  // until the next StartEpoch replaces it.
}

const AccessSchedule* PrefetchScheduler::schedule() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return schedule_.get();
}

PrefetchSchedulerStats PrefetchScheduler::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

}  // namespace diesel::prefetch
