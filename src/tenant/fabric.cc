#include "tenant/fabric.h"

#include "obs/metrics.h"

namespace diesel::tenant {

namespace {

/// Fabric-wide registry handles, resolved once.
struct FabricGauges {
  obs::Gauge& resident_bytes;
  obs::Gauge& resident_chunks;
  obs::Gauge& tenants_active;
  obs::Counter& declined_chunks;
  obs::Counter& invalidated_chunks;
};

FabricGauges& FbGauges() {
  static FabricGauges g{
      obs::Metrics().GetGauge("tenant.fabric.resident_bytes"),
      obs::Metrics().GetGauge("tenant.fabric.resident_chunks"),
      obs::Metrics().GetGauge("tenant.fabric.tenants_active"),
      obs::Metrics().GetCounter("tenant.fabric.declined_chunks"),
      obs::Metrics().GetCounter("tenant.fabric.invalidated_chunks"),
  };
  return g;
}

/// Adoption RPC request overhead (chunk id + directory bookkeeping).
constexpr uint64_t kAdoptRequestBytes = 96;

}  // namespace

// ---------------------------------------------------------------------------
// TenantBinding — all state lives in the fabric, under its mutex.

Result<core::ChunkBuffer> TenantBinding::Adopt(
    sim::VirtualClock& clock, sim::NodeId reader, size_t chunk_index) {
  CacheFabric& f = *fabric_;
  core::ChunkBuffer buffer;
  sim::NodeId home = sim::kInvalidNode;
  size_t provider = 0;
  {
    std::lock_guard<std::mutex> lock(f.mutex_);
    const auto it =
        f.directory_.find({f.tenants_.at(slot_)->dataset, chunk_index});
    if (it == f.directory_.end()) {
      return Status::NotFound("chunk not resident in shared tier");
    }
    buffer = it->second.buffer;
    home = it->second.home;
    provider = it->second.owner;
  }
  // Charge virtual time OUTSIDE the lock (the handler may recurse into
  // shared devices). Cross-node adoption pays one RPC carrying the chunk;
  // if the home node is gone (crashed / migrated away), the bytes are still
  // alive via the directory's refcount — serve them locally and re-home the
  // entry to the reader, so the fabric degrades with membership churn
  // instead of failing adoptions.
  bool rehome = false;
  if (home != sim::kInvalidNode && home != reader &&
      f.fabric_.NodeAvailable(home, clock.now())) {
    Status st = f.fabric_.Call(
        clock, reader, home, kAdoptRequestBytes, buffer.size(),
        [&](Nanos arrival) {
          return f.fabric_.cluster().node(home).membus().Serve(arrival,
                                                               buffer.size());
        });
    if (!st.ok()) rehome = true;
  } else if (home != reader) {
    rehome = true;
  }
  if (rehome) {
    Nanos t = f.fabric_.cluster().node(reader).membus().Serve(clock.now(),
                                                              buffer.size());
    clock.AdvanceTo(t);
  }
  {
    std::lock_guard<std::mutex> lock(f.mutex_);
    CacheFabric::TenantRec& t = *f.tenants_.at(slot_);
    auto it = f.directory_.find({t.dataset, chunk_index});
    if (rehome && it != f.directory_.end()) it->second.home = reader;
    ++t.stats.adopted_chunks;
    t.stats.adopted_bytes += buffer.size();
    t.series.adopted_chunks->Inc();
    if (provider < f.tenants_.size()) {
      ++f.tenants_[provider]->stats.shared_hits;
      f.tenants_[provider]->series.shared_hits->Inc();
    }
  }
  return buffer;
}

void TenantBinding::Publish(sim::NodeId home, size_t chunk_index,
                            const core::ChunkBuffer& buffer, Nanos now) {
  (void)now;
  Offer(home, chunk_index, buffer, /*demote=*/false);
}

uint64_t TenantBinding::Demote(sim::NodeId home, size_t chunk_index,
                               const core::ChunkBuffer& buffer, Nanos now) {
  (void)now;
  return Offer(home, chunk_index, buffer, /*demote=*/true);
}

uint64_t TenantBinding::Offer(sim::NodeId home, size_t chunk_index,
                              const core::ChunkBuffer& buffer, bool demote) {
  if (!buffer) return 0;
  CacheFabric& f = *fabric_;
  std::lock_guard<std::mutex> lock(f.mutex_);
  CacheFabric::TenantRec& t = *f.tenants_.at(slot_);
  CacheFabric::Key key{t.dataset, chunk_index};
  if (!demote) ++t.stats.published_chunks;
  auto it = f.directory_.find(key);
  if (it != f.directory_.end()) {
    // Already shared: the bytes are retained regardless of who owns them.
    // Refresh the home hint so adoptions ride the freshest copy.
    CacheFabric::Entry& e = it->second;
    if (home != sim::kInvalidNode) e.home = home;
    if (e.buffer.shared_blob() == buffer.shared_blob()) {
      // Byte-identical share, but two tasks that each fetched the chunk
      // from the store hold separate memos: fold the caller's in.
      e.buffer.MergeVerified(buffer);
    } else if (buffer.AnyVerified()) {
      // A DIFFERENT blob carrying fresh checks: the resident copy may be a
      // corrupt blob published before any CRC scan, which the caller just
      // detected and refetched around. The caller's buffer (its memo
      // vouches only for its own bytes) replaces the resident one. The
      // owner keeps the charge (re-priced if the sizes differ).
      CacheFabric::TenantRec& o = *f.tenants_.at(e.owner);
      uint64_t old_sz = e.buffer.size();
      uint64_t new_sz = buffer.size();
      e.buffer = buffer;
      if (old_sz != new_sz) {
        f.bytes_ += new_sz - old_sz;
        o.stats.resident_bytes += new_sz - old_sz;
        o.series.resident_bytes->Set(
            static_cast<double>(o.stats.resident_bytes));
        FbGauges().resident_bytes.Set(static_cast<double>(f.bytes_));
      }
    }
    // else: a different blob with no checked file — nothing trustworthy;
    // the resident entry stands.
    if (demote) ++t.stats.demoted_chunks;
    return e.buffer.size();
  }
  uint64_t sz = buffer.size();
  if (!f.AdmitLocked(slot_, sz)) {
    FbGauges().declined_chunks.Inc();
    return 0;
  }
  CacheFabric::Entry entry;
  entry.buffer = buffer;  // refcount share (memo included) — no copy
  entry.home = home;
  entry.owner = slot_;
  f.directory_.emplace(key, std::move(entry));
  f.bytes_ += sz;
  t.stats.resident_bytes += sz;
  ++t.stats.resident_chunks;
  if (demote) ++t.stats.demoted_chunks;
  t.fifo.push_back(key);
  t.series.resident_bytes->Set(static_cast<double>(t.stats.resident_bytes));
  t.series.resident_chunks->Set(static_cast<double>(t.stats.resident_chunks));
  FbGauges().resident_bytes.Set(static_cast<double>(f.bytes_));
  FbGauges().resident_chunks.Set(static_cast<double>(f.directory_.size()));
  return sz;
}

void TenantBinding::Invalidate(size_t chunk_index,
                               const core::ChunkBuffer& buffer) {
  if (!buffer) return;
  CacheFabric& f = *fabric_;
  std::lock_guard<std::mutex> lock(f.mutex_);
  auto it = f.directory_.find({f.tenants_.at(slot_)->dataset, chunk_index});
  if (it == f.directory_.end()) return;
  CacheFabric::Entry& e = it->second;
  // Identity check: a concurrent publish may already have replaced the
  // corrupt blob with a checked one — don't throw the good copy away.
  if (e.buffer.shared_blob() != buffer.shared_blob()) return;
  CacheFabric::TenantRec& o = *f.tenants_.at(e.owner);
  uint64_t sz = e.buffer.size();
  f.directory_.erase(it);
  f.bytes_ -= sz;
  o.stats.resident_bytes -= sz;
  --o.stats.resident_chunks;
  // The owner's FIFO keeps a stale key; the lazy victim scan skips it.
  o.series.resident_bytes->Set(static_cast<double>(o.stats.resident_bytes));
  o.series.resident_chunks->Set(static_cast<double>(o.stats.resident_chunks));
  FbGauges().resident_bytes.Set(static_cast<double>(f.bytes_));
  FbGauges().resident_chunks.Set(static_cast<double>(f.directory_.size()));
  FbGauges().invalidated_chunks.Inc();
}

std::string TenantBinding::dataset() const {
  std::lock_guard<std::mutex> lock(fabric_->mutex_);
  return fabric_->tenants_.at(slot_)->dataset;
}

// ---------------------------------------------------------------------------
// CacheFabric

CacheFabric::CacheFabric(net::Fabric& fabric, FabricOptions options)
    : fabric_(fabric), options_(options) {}

TenantBinding* CacheFabric::RegisterTenant(const std::string& dataset,
                                           TenantOptions options) {
  std::lock_guard<std::mutex> lock(mutex_);
  // Revive a departed tenant of the same name (task restart keeps its
  // accounting history and re-owns its residue at full weight). A name that
  // is still active belongs to a live task: handing out its binding again
  // would alias two tasks onto one accounting row (and double-count the
  // active gauge), so the registration is rejected instead.
  for (auto& t : tenants_) {
    if (t->stats.name == options.name) {
      if (t->stats.active) return nullptr;
      t->stats.weight = options.weight;
      t->dataset = dataset;
      t->stats.active = true;
      FbGauges().tenants_active.Add(1.0);
      return t->binding.get();
    }
  }
  auto rec = std::make_unique<TenantRec>();
  size_t slot = tenants_.size();
  rec->stats.name = std::move(options.name);
  rec->stats.weight = options.weight;
  rec->dataset = dataset;
  obs::Labels labels{{"tenant", rec->stats.name}};
  rec->series.resident_bytes =
      &obs::Metrics().GetGauge("tenant.resident_bytes", labels);
  rec->series.resident_chunks =
      &obs::Metrics().GetGauge("tenant.resident_chunks", labels);
  rec->series.adopted_chunks =
      &obs::Metrics().GetCounter("tenant.fabric.adopted_chunks", labels);
  rec->series.shared_hits =
      &obs::Metrics().GetCounter("tenant.shared_hits", labels);
  rec->series.evictions =
      &obs::Metrics().GetCounter("tenant.evictions", labels);
  rec->series.evicted_by_other =
      &obs::Metrics().GetCounter("tenant.evicted_by_other", labels);
  rec->binding.reset(new TenantBinding(this, slot));
  tenants_.push_back(std::move(rec));
  FbGauges().tenants_active.Add(1.0);
  return tenants_.back()->binding.get();
}

void CacheFabric::DeregisterTenant(TenantBinding* binding) {
  if (binding == nullptr) return;
  std::lock_guard<std::mutex> lock(mutex_);
  TenantStats& t = tenants_.at(binding->slot_)->stats;
  if (!t.active) return;
  t.active = false;
  FbGauges().tenants_active.Add(-1.0);
}

double CacheFabric::EffectiveWeight(const TenantRec& t) const {
  double w = t.stats.weight > 0.0 ? t.stats.weight : 1.0;
  return t.stats.active ? w : w * kDepartedWeight;
}

bool CacheFabric::EvictOldestLocked(size_t victim, size_t for_tenant) {
  TenantRec& v = *tenants_[victim];
  while (!v.fifo.empty()) {
    Key key = v.fifo.front();
    v.fifo.pop_front();
    auto it = directory_.find(key);
    // Lazy FIFO: skip entries that were overwritten or re-owned since.
    if (it == directory_.end() || it->second.owner != victim) continue;
    uint64_t sz = it->second.buffer.size();
    directory_.erase(it);
    bytes_ -= sz;
    v.stats.resident_bytes -= sz;
    --v.stats.resident_chunks;
    ++v.stats.evictions;
    v.series.evictions->Inc();
    v.series.resident_bytes->Set(static_cast<double>(v.stats.resident_bytes));
    v.series.resident_chunks->Set(static_cast<double>(v.stats.resident_chunks));
    FbGauges().resident_bytes.Set(static_cast<double>(bytes_));
    FbGauges().resident_chunks.Set(static_cast<double>(directory_.size()));
    if (victim != for_tenant) {
      ++v.stats.evicted_by_other;
      v.series.evicted_by_other->Inc();
    }
    return true;
  }
  return false;
}

bool CacheFabric::AdmitLocked(size_t slot, uint64_t bytes) {
  if (options_.capacity_bytes == 0) return true;
  if (bytes > options_.capacity_bytes) return false;
  // Weighted fair capacity: repeatedly evict from the tenant carrying the
  // most bytes per unit of effective weight. Deterministic: ties break on
  // the lower slot index.
  while (bytes_ + bytes > options_.capacity_bytes) {
    size_t victim = tenants_.size();
    double worst = -1.0;
    for (size_t i = 0; i < tenants_.size(); ++i) {
      const TenantRec& c = *tenants_[i];
      if (c.fifo.empty() || c.stats.resident_chunks == 0) continue;
      double ratio =
          static_cast<double>(c.stats.resident_bytes) / EffectiveWeight(c);
      if (ratio > worst) {
        worst = ratio;
        victim = i;
      }
    }
    if (victim == tenants_.size()) return false;  // nothing evictable
    if (!EvictOldestLocked(victim, slot)) {
      // Stale FIFO drained without a real entry; drop the tenant from
      // consideration by clearing its (now empty) queue and retry.
      if (tenants_[victim]->fifo.empty()) continue;
      return false;
    }
  }
  return true;
}

std::vector<TenantStats> CacheFabric::Stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<TenantStats> out;
  out.reserve(tenants_.size());
  for (const auto& t : tenants_) out.push_back(t->stats);
  return out;
}

uint64_t CacheFabric::resident_bytes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return bytes_;
}

size_t CacheFabric::resident_chunks() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return directory_.size();
}

}  // namespace diesel::tenant
