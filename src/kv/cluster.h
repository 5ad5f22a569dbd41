// Redis-cluster-like deployment of KV shards across simulated nodes.
//
// The DIESEL metadata plane stores key-value pairs here (Fig. 2). Shards are
// placed round-robin over the given nodes (the paper runs 16 Redis instances
// on 4 machines); keys map to shards via consistent hashing. Client
// operations pay one RPC to the owning shard plus the shard's service-loop
// time; batch puts pipeline many entries over a single round trip, which is
// what lets DIESEL servers ingest chunk metadata at high rates.
#pragma once

#include <algorithm>
#include <functional>
#include <memory>
#include <numeric>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"
#include "kv/ring.h"
#include "kv/shard.h"
#include "net/fabric.h"
#include "sim/clock.h"

namespace diesel::obs {
class ScopedSpan;
}  // namespace diesel::obs

namespace diesel::kv {

struct KvClusterOptions {
  /// Nodes hosting shards.
  std::vector<sim::NodeId> nodes;
  uint32_t shards_per_node = 4;
};

class KvCluster {
 public:
  KvCluster(net::Fabric& fabric, KvClusterOptions options);

  size_t NumShards() const { return shards_.size(); }
  Shard& shard(uint32_t i) { return *shards_.at(i); }
  sim::NodeId ShardNode(uint32_t i) const { return shard_node_.at(i); }
  uint32_t OwnerShard(std::string_view key) const { return ring_.Owner(key); }

  // -- data plane (all charge virtual time on `clock`) --------------------
  Status Put(sim::VirtualClock& clock, sim::NodeId client,
             std::string_view key, std::string_view value);
  Result<std::string> Get(sim::VirtualClock& clock, sim::NodeId client,
                          const std::string& key);
  Status Delete(sim::VirtualClock& clock, sim::NodeId client,
                const std::string& key);

  /// Pipelined multi-put: entries are grouped per owning shard, one RPC per
  /// shard, per-entry service time still paid at the shard. The shards copy
  /// from `batch`, so a dropped attempt, or one a down shard refuses,
  /// re-sends that shard's whole group.
  Status BatchPut(sim::VirtualClock& clock, sim::NodeId client,
                  const WriteBatch& batch);

  /// Pipelined multi-get: one RPC per owning shard, all in flight together
  /// from the caller's now, so the call takes as long as its slowest shard
  /// (the sender NIC's channels queue any beyond its width). Result i
  /// corresponds to keys[i]; missing keys yield nullopt. Every touched shard
  /// is asked even when one fails; the first failure in shard order is
  /// returned (Unavailable if an owning shard is down).
  Result<std::vector<std::optional<std::string>>> MGet(
      sim::VirtualClock& clock, sim::NodeId client,
      const std::vector<std::string>& keys);

  /// Visiting prefix scan: one RPC per shard, in shard order, each shard
  /// visiting its entries whose key starts with `prefix` in key order, up to
  /// `limit` per shard (0 = unlimited), as visit(shard, key, value). So the
  /// calls form one key-ordered run per shard that holds a match. `visit`
  /// runs under the shard's lock, inside the RPC handler: it must not call
  /// back into the KV store, and the views die when it returns. Each shard
  /// is visited at most once: a retry only repeats attempts that failed
  /// before the handler ran. On an error, the shards before the failing one
  /// have already been visited. Charged like every pscan: the request, then
  /// Serve(arrival, sum of key + value sizes + framing) on the shard.
  using ScanVisitor = std::function<void(uint32_t shard, std::string_view key,
                                         std::string_view value)>;
  Status Scan(sim::VirtualClock& clock, sim::NodeId client,
              std::string_view prefix, const ScanVisitor& visit,
              size_t limit = 0);

  /// Prefix scan across all shards, merged in key order: Scan collected into
  /// owned entries.
  Result<std::vector<ScanEntry>> PScan(sim::VirtualClock& clock,
                                       sim::NodeId client,
                                       const std::string& prefix,
                                       size_t limit = 0);

  // -- failure injection ---------------------------------------------------
  void FailShard(uint32_t i) { shards_.at(i)->Fail(); }
  void RestartShard(uint32_t i) { shards_.at(i)->Restart(); }
  /// Fail every shard hosted on `node` (machine crash).
  void FailShardsOnNode(sim::NodeId node);
  /// Restart every shard hosted on `node` (machine back up; shards come back
  /// empty — callers redrive metadata via DieselServer::RecoverMetadata).
  void RestartShardsOnNode(sim::NodeId node);

  size_t TotalKeys() const;

  /// Forget all shard service-queue state (fresh experiment repetition).
  void ResetDevices() {
    for (auto& s : shards_) s->service().Reset();
  }

 private:
  struct OpMetrics;

  Status CheckShardUp(uint32_t s) const;

  /// The protocol every op runs against shard `s`, under RetryPolicy{} so
  /// short flaps and injected RPC drops are ridden out: each attempt checks
  /// the shard is up, then calls it with `handler` (arrival -> service end),
  /// which leaves the op's answer in `outcome`. Returns the call's error or
  /// that answer, after folding the attempts into `metrics`.
  template <typename R, typename Handler>
  R CallWithRetry(sim::VirtualClock& clock, sim::NodeId client, uint32_t s,
                  uint64_t req_bytes, uint64_t resp_bytes, OpMetrics& metrics,
                  obs::ScopedSpan& span, R& outcome, Handler&& handler);

  net::Fabric& fabric_;
  KvClusterOptions options_;
  HashRing ring_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<sim::NodeId> shard_node_;
};

/// The sorted order of items 0..n-1 (n = runs.back()), given that each
/// range [runs[i], runs[i+1]) is already sorted by `less(index, index)`:
/// adjacent runs merge pairwise, log2(runs) passes, so per-shard scan
/// results reach global order without a full re-sort. Only indices move,
/// between two buffers.
template <typename Less>
std::vector<uint32_t> MergedOrder(std::vector<size_t> runs, Less less) {
  const size_t n = runs.empty() ? 0 : runs.back();
  std::vector<uint32_t> order(n);
  std::vector<uint32_t> other(n);
  std::iota(order.begin(), order.end(), 0u);
  std::vector<size_t> next;
  while (runs.size() > 2) {
    next.assign(1, 0);
    for (size_t i = 0; i + 1 < runs.size(); i += 2) {
      const size_t mid = runs[i + 1];
      const size_t hi = i + 2 < runs.size() ? runs[i + 2] : mid;
      std::merge(order.begin() + runs[i], order.begin() + mid,
                 order.begin() + mid, order.begin() + hi,
                 other.begin() + runs[i], less);
      next.push_back(hi);
    }
    order.swap(other);
    runs.swap(next);
  }
  return order;
}

}  // namespace diesel::kv
