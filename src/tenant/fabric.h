// Cluster-wide multi-tenant cache fabric (ROADMAP item 1).
//
// DIESEL's TaskCache is task-grained: built at task start, discarded at
// teardown, so two jobs training over the same dataset each pay full
// backend reads. The CacheFabric is the cross-task tier above it — a
// dataset-level chunk directory with refcounted dedup (Hoard-style, see
// PAPERS.md): a chunk resident for one task is served to every task reading
// that dataset, a newly registered task warm-starts by adopting resident
// chunks instead of re-reading the object store, and an orderly teardown
// demotes residency into the fabric instead of dropping it.
//
// Sharing is by core::ChunkBuffer refcount: the directory, every task
// cache, and every outstanding FileSlice hold references on the same
// immutable blob, so slices handed to task A stay valid after task B — the
// task that loaded the bytes — tears down, migrates, or crashes.
//
// Admission/QoS: tenants carry weights. Under capacity pressure the fabric
// evicts from the tenant with the largest bytes/weight ratio (weighted
// max-min fairness), so a large job cannot starve small ones of shared
// capacity; departed tenants' residue stays adoptable but at a quarter of
// its weight (kDepartedWeight), making it the preferred victim.
#pragma once

#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "cache/shared_tier.h"
#include "net/fabric.h"
#include "obs/metrics.h"

namespace diesel::tenant {

struct TenantOptions {
  /// Display/metrics name; must be unique per fabric.
  std::string name{};
  /// Fair-share weight for capacity eviction.
  double weight = 1.0;
};

struct FabricOptions {
  /// Shared-tier capacity in bytes; 0 = unbounded.
  uint64_t capacity_bytes = 0;
};

/// Weight multiplier applied to a departed tenant's residue: still
/// adoptable (that is the whole point of demotion), but the first to be
/// evicted when live tenants need the capacity.
inline constexpr double kDepartedWeight = 0.25;

/// Per-tenant accounting row (returned by CacheFabric::Stats, mirrored into
/// the registry as tenant.*{tenant=} series).
struct TenantStats {
  std::string name;
  double weight = 1.0;
  bool active = true;
  uint64_t resident_bytes = 0;    // shared-tier bytes charged to this tenant
  uint64_t resident_chunks = 0;
  uint64_t published_chunks = 0;  // backend loads offered while running
  uint64_t demoted_chunks = 0;    // teardown chunks the fabric retained
  uint64_t adopted_chunks = 0;    // chunks this tenant warm-started
  uint64_t adopted_bytes = 0;
  uint64_t shared_hits = 0;       // adoptions served FROM this tenant's bytes
  uint64_t evictions = 0;         // own entries evicted (any reason)
  uint64_t evicted_by_other = 0;  // ... of which to admit another tenant
};

class CacheFabric;

/// One task's handle on the fabric: implements the cache-facing
/// SharedCacheTier (attach with TaskCache::AttachSharedTier). Owned by the
/// fabric; valid until the fabric is destroyed — deregistering only marks
/// the tenant departed.
class TenantBinding : public cache::SharedCacheTier {
 public:
  Result<core::ChunkBuffer> Adopt(sim::VirtualClock& clock, sim::NodeId reader,
                                  size_t chunk_index) override;
  void Publish(sim::NodeId home, size_t chunk_index,
               const core::ChunkBuffer& buffer, Nanos now) override;
  uint64_t Demote(sim::NodeId home, size_t chunk_index,
                  const core::ChunkBuffer& buffer, Nanos now) override;
  void Invalidate(size_t chunk_index,
                  const core::ChunkBuffer& buffer) override;

  /// Bound dataset. Read under the fabric mutex — revival may rebind it
  /// concurrently with readers.
  std::string dataset() const;

 private:
  friend class CacheFabric;
  TenantBinding(CacheFabric* fabric, size_t slot)
      : fabric_(fabric), slot_(slot) {}

  CacheFabric* fabric_;
  size_t slot_;  // index into the fabric's tenant table
};

class CacheFabric {
 public:
  /// `fabric` models the cluster network adoption transfers ride on; it
  /// must outlive this object.
  explicit CacheFabric(net::Fabric& fabric, FabricOptions options = {});

  CacheFabric(const CacheFabric&) = delete;
  CacheFabric& operator=(const CacheFabric&) = delete;

  /// Register a task reading `dataset`. The returned binding stays valid
  /// for the fabric's lifetime. Names must be unique; re-registering a
  /// departed name revives that tenant's accounting row (warm restart),
  /// while a name that is still active is rejected (returns nullptr) — two
  /// live tasks must never share a binding.
  TenantBinding* RegisterTenant(const std::string& dataset,
                                TenantOptions options);

  /// Mark the tenant departed: its residue stays adoptable at
  /// kDepartedWeight priority. Idempotent.
  void DeregisterTenant(TenantBinding* binding);

  /// Accounting rows in registration order.
  std::vector<TenantStats> Stats() const;

  uint64_t resident_bytes() const;
  size_t resident_chunks() const;

 private:
  friend class TenantBinding;

  using Key = std::pair<std::string, size_t>;  // (dataset, chunk index)

  struct Entry {
    core::ChunkBuffer buffer;
    sim::NodeId home = sim::kInvalidNode;  // adoption transfer source
    size_t owner = 0;                      // tenant charged for the bytes
  };

  /// Per-tenant labeled registry handles, resolved once at registration so
  /// the hot paths pay relaxed increments only.
  struct Series {
    obs::Gauge* resident_bytes = nullptr;
    obs::Gauge* resident_chunks = nullptr;
    obs::Counter* adopted_chunks = nullptr;
    obs::Counter* shared_hits = nullptr;
    obs::Counter* evictions = nullptr;
    obs::Counter* evicted_by_other = nullptr;
  };

  struct TenantRec {
    TenantOptions opts;
    std::string dataset;
    Series series;
    bool active = true;
    uint64_t charged_bytes = 0;
    uint64_t resident_chunks = 0;
    uint64_t published_chunks = 0;
    uint64_t demoted_chunks = 0;
    uint64_t adopted_chunks = 0;
    uint64_t adopted_bytes = 0;
    uint64_t shared_hits = 0;
    uint64_t evictions = 0;
    uint64_t evicted_by_other = 0;
    std::deque<Key> fifo;  // own entries, insertion order (victim scan)
    std::unique_ptr<TenantBinding> binding;
  };

  /// Effective fair-share weight (departed tenants count reduced).
  double EffectiveWeight(const TenantRec& t) const;

  /// Admit `bytes` for tenant `slot` (lock held): enforce the fabric
  /// capacity by weighted fair eviction across tenants. False = cannot fit
  /// (declined).
  bool AdmitLocked(size_t slot, uint64_t bytes);

  /// Evict `victim`'s oldest entry (lock held). False when it has none.
  bool EvictOldestLocked(size_t victim, size_t for_tenant);

  /// Publish/Demote shared body (takes the lock). Returns bytes retained in
  /// the shared tier (0 = declined/discarded).
  uint64_t Offer(size_t slot, sim::NodeId home, size_t chunk_index,
                 const core::ChunkBuffer& buffer, bool demote);

  /// Corruption invalidation body: erase the entry iff it still holds
  /// exactly `buffer`'s bytes (identity by shared blob pointer).
  void InvalidateImpl(size_t slot, size_t chunk_index,
                      const core::ChunkBuffer& buffer);

  /// Binding accessor body (the bound dataset is rebound on revival, so
  /// reads go through the fabric mutex).
  std::string DatasetOf(size_t slot) const;

  /// Adoption body: directory lookup under the lock, virtual-time transfer
  /// charge outside it (the handler touches shared simulated devices).
  Result<core::ChunkBuffer> AdoptImpl(size_t slot, sim::VirtualClock& clock,
                                      sim::NodeId reader, size_t chunk_index);

  net::Fabric& fabric_;
  FabricOptions options_;
  mutable std::mutex mutex_;
  /// (dataset, chunk) -> shared entry. std::map: deterministic iteration —
  /// eviction order is part of the reproducible simulation.
  std::map<Key, Entry> directory_;
  std::vector<std::unique_ptr<TenantRec>> tenants_;
  uint64_t bytes_ = 0;
};

}  // namespace diesel::tenant
