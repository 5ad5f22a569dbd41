#include "kv/cluster.h"

#include <algorithm>
#include <cassert>
#include <functional>
#include <span>
#include <type_traits>

#include "common/retry.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/calibration.h"

namespace diesel::kv {
namespace {

// Wire framing overhead per KV op (command name, lengths).
constexpr uint64_t kOpOverheadBytes = 16;

/// Item indexes 0..n-1 grouped by owning shard, each group in item order
/// (a counting sort): shard s's items are order[start[s], start[s+1]).
struct ShardGroups {
  std::vector<uint32_t> start;
  std::vector<uint32_t> order;

  std::span<const uint32_t> of(uint32_t s) const {
    return std::span<const uint32_t>(order).subspan(start[s],
                                                    start[s + 1] - start[s]);
  }
};

template <typename OwnerOf>
ShardGroups GroupByShard(size_t n, size_t num_shards, OwnerOf owner_of) {
  ShardGroups g;
  g.start.assign(num_shards + 1, 0);
  g.order.resize(n);
  for (size_t i = 0; i < n; ++i) ++g.start[owner_of(i) + 1];
  for (size_t s = 0; s < num_shards; ++s) g.start[s + 1] += g.start[s];
  // Fill each group with start[s] as its cursor. That leaves start[s] at
  // the group's end, which is where group s + 1 starts, so every entry then
  // moves up one slot.
  for (size_t i = 0; i < n; ++i) {
    g.order[g.start[owner_of(i)]++] = static_cast<uint32_t>(i);
  }
  for (size_t s = num_shards; s > 0; --s) g.start[s] = g.start[s - 1];
  g.start[0] = 0;
  return g;
}

}  // namespace

/// Per-op registry handles (op mix, retry count, terminal failures),
/// resolved once per op kind.
struct KvCluster::OpMetrics {
  obs::Counter& ops;
  obs::Counter& retries;
  obs::Counter& failures;
  /// A NotFound Get is a semantic answer, not a failed op.
  const bool not_found_is_answer;

  explicit OpMetrics(const char* op, bool not_found_is_answer = false)
      : ops(obs::Metrics().GetCounter("kv.ops", {{"op", op}})),
        retries(obs::Metrics().GetCounter("kv.retries", {{"op", op}})),
        failures(obs::Metrics().GetCounter("kv.failures", {{"op", op}})),
        not_found_is_answer(not_found_is_answer) {}

  /// Fold one finished operation in: `attempts` lambda invocations beyond
  /// the first are retries; a bad terminal status is a failure. Retries are
  /// also noted on `span` so fault runs read off the trace directly.
  void Record(uint32_t attempts, const Status& final_status,
              obs::ScopedSpan& span) {
    ops.Inc();
    if (attempts > 1) {
      retries.Inc(attempts - 1);
      span.Note("kv.retries=" + std::to_string(attempts - 1));
    }
    if (!final_status.ok() &&
        !(not_found_is_answer && final_status.IsNotFound())) {
      failures.Inc();
      span.Note("kv.failed: " + final_status.message());
    }
  }
};

KvCluster::KvCluster(net::Fabric& fabric, KvClusterOptions options)
    : fabric_(fabric), options_(std::move(options)) {
  assert(!options_.nodes.empty());
  uint32_t id = 0;
  for (sim::NodeId node : options_.nodes) {
    for (uint32_t j = 0; j < options_.shards_per_node; ++j) {
      shards_.push_back(std::make_unique<Shard>(
          id, sim::RedisShardSpec("kv-shard" + std::to_string(id))));
      shards_.back()->service().BindMetrics("n" + std::to_string(node));
      shard_node_.push_back(node);
      ring_.AddMember(id);
      ++id;
    }
  }
}

Status KvCluster::CheckShardUp(uint32_t s) const {
  if (!shards_.at(s)->up())
    return Status::Unavailable("kv shard " + std::to_string(s) + " down");
  return Status::Ok();
}

template <typename R, typename Handler>
R KvCluster::CallWithRetry(sim::VirtualClock& clock, sim::NodeId client,
                           uint32_t s, uint64_t req_bytes, uint64_t resp_bytes,
                           OpMetrics& metrics, obs::ScopedSpan& span,
                           R& outcome, Handler&& handler) {
  uint32_t attempts = 0;
  R final_outcome = RetryPolicy{}.Run(clock, [&]() -> R {
    ++attempts;
    DIESEL_RETURN_IF_ERROR(CheckShardUp(s));
    // `handler` by reference: a std::function keeps a reference_wrapper
    // inline, where it would heap-allocate a lambda that captures more than
    // two references, once per RPC.
    DIESEL_RETURN_IF_ERROR(fabric_.Call(clock, client, shard_node_[s],
                                        req_bytes, resp_bytes,
                                        std::ref(handler)));
    return std::move(outcome);
  });
  if constexpr (std::is_same_v<R, Status>) {
    metrics.Record(attempts, final_outcome, span);
  } else {
    metrics.Record(attempts, final_outcome.status(), span);
  }
  return final_outcome;
}

Status KvCluster::Put(sim::VirtualClock& clock, sim::NodeId client,
                      std::string_view key, std::string_view value) {
  static OpMetrics metrics("put");
  obs::ScopedSpan span(fabric_.tracer(), "kv.put", clock, client);
  const HashedKey hkey(key);
  uint32_t s = ring_.OwnerOfHash(hkey.hash);
  Shard& shard = *shards_[s];
  uint64_t req = key.size() + value.size() + kOpOverheadBytes;
  Status op_status;
  return CallWithRetry(clock, client, s, req, kOpOverheadBytes, metrics, span,
                       op_status, [&](Nanos arrival) {
                         op_status = shard.Put(hkey, value);
                         return shard.service().Serve(arrival, req);
                       });
}

Result<std::string> KvCluster::Get(sim::VirtualClock& clock, sim::NodeId client,
                                   const std::string& key) {
  static OpMetrics metrics("get", /*not_found_is_answer=*/true);
  obs::ScopedSpan span(fabric_.tracer(), "kv.get", clock, client);
  const HashedKey hkey(key);
  uint32_t s = ring_.OwnerOfHash(hkey.hash);
  Shard& shard = *shards_[s];
  uint64_t req = key.size() + kOpOverheadBytes;
  Result<std::string> result = Status::Internal("unset");
  return CallWithRetry(clock, client, s, req, /*resp guess=*/256, metrics,
                       span, result, [&](Nanos arrival) {
                         result = shard.Get(hkey);
                         uint64_t resp = result.ok() ? result.value().size() : 0;
                         return shard.service().Serve(arrival, req + resp);
                       });
}

Status KvCluster::Delete(sim::VirtualClock& clock, sim::NodeId client,
                         const std::string& key) {
  static OpMetrics metrics("delete");
  obs::ScopedSpan span(fabric_.tracer(), "kv.delete", clock, client);
  const HashedKey hkey(key);
  uint32_t s = ring_.OwnerOfHash(hkey.hash);
  Shard& shard = *shards_[s];
  uint64_t req = key.size() + kOpOverheadBytes;
  Status op_status;
  return CallWithRetry(clock, client, s, req, kOpOverheadBytes, metrics, span,
                       op_status, [&](Nanos arrival) {
                         op_status = shard.Delete(hkey);
                         return shard.service().Serve(arrival, req);
                       });
}

Status KvCluster::BatchPut(sim::VirtualClock& clock, sim::NodeId client,
                           const WriteBatch& batch) {
  static OpMetrics metrics("batch_put");
  obs::ScopedSpan span(fabric_.tracer(), "kv.batch_put", clock, client);
  // Group per owning shard, one pipelined RPC per shard.
  const ShardGroups groups =
      GroupByShard(batch.size(), shards_.size(), [&](size_t i) {
        return ring_.OwnerOfHash(batch.key(i).hash);
      });
  for (uint32_t s = 0; s < shards_.size(); ++s) {
    const std::span<const uint32_t> group = groups.of(s);
    if (group.empty()) continue;
    Shard& shard = *shards_[s];
    uint64_t req = 0;
    for (uint32_t i : group) {
      req += batch.key(i).key.size() + batch.value(i).size() + kOpOverheadBytes;
    }
    Status op_status;
    DIESEL_RETURN_IF_ERROR(CallWithRetry(
        clock, client, s, req, kOpOverheadBytes, metrics, span, op_status,
        [&](Nanos arrival) {
          // Pipelined batch: the shard pays its per-command latency once
          // and a marginal per-entry cost for the rest (Redis pipelining).
          op_status = shard.PutBatch(batch, group);
          return shard.service().Serve(
              arrival, req, sim::kKvBatchEntryCost * (group.size() - 1));
        }));
  }
  return Status::Ok();
}

Result<std::vector<std::optional<std::string>>> KvCluster::MGet(
    sim::VirtualClock& clock, sim::NodeId client,
    const std::vector<std::string>& keys) {
  static OpMetrics metrics("mget");
  obs::ScopedSpan span(fabric_.tracer(), "kv.mget", clock, client);
  std::vector<std::optional<std::string>> out(keys.size());
  std::vector<uint64_t> hashes(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) hashes[i] = KeyHash(keys[i]);
  // Group request indices per owning shard.
  const ShardGroups groups =
      GroupByShard(keys.size(), shards_.size(),
                   [&](size_t i) { return ring_.OwnerOfHash(hashes[i]); });
  // Scatter-gather: each shard group's RPC, retries included, runs on its
  // own clock, so the sub-requests are in flight together (the devices
  // queue whatever overlaps). Every touched shard is issued; the caller sees
  // the first failure in shard order.
  sim::ScatterGather fan(clock);
  for (uint32_t s = 0; s < shards_.size(); ++s) {
    const std::span<const uint32_t> indices = groups.of(s);
    if (indices.empty()) continue;
    fan.Issue([&](sim::VirtualClock& sub) -> Status {
      Shard& shard = *shards_[s];
      uint64_t req = kOpOverheadBytes;
      for (size_t i : indices) req += keys[i].size();
      Status served;  // a delivered multi-get cannot fail at the shard
      return CallWithRetry(
          sub, client, s, req, kOpOverheadBytes, metrics, span, served,
          [&](Nanos arrival) {
            uint64_t resp = 0;
            for (uint32_t i : indices) {
              Result<std::string> v = shard.Get(HashedKey(keys[i], hashes[i]));
              if (v.ok()) {
                resp += v.value().size();
                out[i] = std::move(v).value();
              }
            }
            return shard.service().Serve(
                arrival, req + resp,
                sim::kKvBatchEntryCost * (indices.size() - 1));
          });
    });
  }
  DIESEL_RETURN_IF_ERROR(fan.Finish());
  return out;
}

Status KvCluster::Scan(sim::VirtualClock& clock, sim::NodeId client,
                       std::string_view prefix, const ScanVisitor& visit,
                       size_t limit) {
  static OpMetrics metrics("pscan");
  obs::ScopedSpan span(fabric_.tracer(), "kv.pscan", clock, client);
  for (uint32_t s = 0; s < shards_.size(); ++s) {
    Shard& shard = *shards_[s];
    // Returned after the retries, not as the attempt's answer: the handler
    // has visited entries by the time it is known.
    Status scan_status = Status::Internal("unset");
    Status served;
    DIESEL_RETURN_IF_ERROR(CallWithRetry(
        clock, client, s, prefix.size() + kOpOverheadBytes,
        /*resp guess=*/1024, metrics, span, served, [&](Nanos arrival) {
          // The handler runs only once the request is delivered, and
          // nothing after it can fail the call, so it runs at most once.
          uint64_t resp = 0;
          scan_status = shard.Scan(
              prefix, limit, [&](std::string_view key, std::string_view value) {
                resp += key.size() + value.size();
                visit(s, key, value);
              });
          return shard.service().Serve(arrival, resp + kOpOverheadBytes);
        }));
    DIESEL_RETURN_IF_ERROR(scan_status);
  }
  return Status::Ok();
}

Result<std::vector<ScanEntry>> KvCluster::PScan(sim::VirtualClock& clock,
                                                sim::NodeId client,
                                                const std::string& prefix,
                                                size_t limit) {
  std::vector<ScanEntry> entries;
  std::vector<size_t> runs;  // entries[runs[i], runs[i+1]) is one shard's run
  uint32_t run_shard = 0;
  DIESEL_RETURN_IF_ERROR(Scan(
      clock, client, prefix,
      [&](uint32_t shard, std::string_view key, std::string_view value) {
        if (runs.empty() || shard != run_shard) {
          runs.push_back(entries.size());
          run_shard = shard;
        }
        entries.push_back({std::string(key), std::string(value)});
      },
      limit));
  runs.push_back(entries.size());
  std::vector<uint32_t> order =
      MergedOrder(std::move(runs), [&entries](uint32_t a, uint32_t b) {
        return entries[a].key < entries[b].key;
      });
  if (limit != 0 && order.size() > limit) order.resize(limit);
  std::vector<ScanEntry> merged;
  merged.reserve(order.size());
  for (uint32_t i : order) merged.push_back(std::move(entries[i]));
  return merged;
}

void KvCluster::FailShardsOnNode(sim::NodeId node) {
  for (uint32_t s = 0; s < shards_.size(); ++s) {
    if (shard_node_[s] == node) shards_[s]->Fail();
  }
}

void KvCluster::RestartShardsOnNode(sim::NodeId node) {
  for (uint32_t s = 0; s < shards_.size(); ++s) {
    if (shard_node_[s] == node) shards_[s]->Restart();
  }
}

size_t KvCluster::TotalKeys() const {
  size_t n = 0;
  for (const auto& s : shards_) n += s->NumKeys();
  return n;
}

}  // namespace diesel::kv
