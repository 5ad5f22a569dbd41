#include "kv/cluster.h"

#include <algorithm>
#include <cassert>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/calibration.h"

namespace diesel::kv {
namespace {

// Wire framing overhead per KV op (command name, lengths).
constexpr uint64_t kOpOverheadBytes = 16;

/// Per-op registry handles (op mix, retry count, terminal failures),
/// resolved once per op kind.
struct OpMetrics {
  obs::Counter& ops;
  obs::Counter& retries;
  obs::Counter& failures;

  explicit OpMetrics(const char* op)
      : ops(obs::Metrics().GetCounter("kv.ops", {{"op", op}})),
        retries(obs::Metrics().GetCounter("kv.retries", {{"op", op}})),
        failures(obs::Metrics().GetCounter("kv.failures", {{"op", op}})) {}

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
    if (!final_status.ok()) {
      failures.Inc();
      span.Note("kv.failed: " + final_status.message());
    }
  }
};

}  // namespace

KvCluster::KvCluster(net::Fabric& fabric, KvClusterOptions options)
    : fabric_(fabric), options_(std::move(options)),
      ring_(options_.ring_vnodes) {
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

Status KvCluster::Put(sim::VirtualClock& clock, sim::NodeId client,
                      std::string key, std::string value) {
  static OpMetrics metrics("put");
  obs::ScopedSpan span(fabric_.tracer(), "kv.put", clock, client);
  uint32_t s = OwnerShard(key);
  Shard& shard = *shards_[s];
  uint64_t req = key.size() + value.size() + kOpOverheadBytes;
  uint32_t attempts = 0;
  Status final_status = options_.retry.Run(clock, [&]() -> Status {
    ++attempts;
    DIESEL_RETURN_IF_ERROR(CheckShardUp(s));
    Status op_status;
    // Copy (not move) into the shard so a dropped-then-retried RPC still
    // carries the full payload.
    DIESEL_RETURN_IF_ERROR(fabric_.Call(
        clock, client, shard_node_[s], req, kOpOverheadBytes,
        [&](Nanos arrival) {
          op_status = shard.Put(key, value);
          return shard.service().Serve(arrival, req);
        }));
    return op_status;
  });
  metrics.Record(attempts, final_status, span);
  return final_status;
}

Result<std::string> KvCluster::Get(sim::VirtualClock& clock, sim::NodeId client,
                                   const std::string& key) {
  static OpMetrics metrics("get");
  obs::ScopedSpan span(fabric_.tracer(), "kv.get", clock, client);
  uint32_t s = OwnerShard(key);
  Shard& shard = *shards_[s];
  uint64_t req = key.size() + kOpOverheadBytes;
  uint32_t attempts = 0;
  Result<std::string> final_result =
      options_.retry.RunResult<std::string>(clock, [&]() -> Result<std::string> {
    ++attempts;
    DIESEL_RETURN_IF_ERROR(CheckShardUp(s));
    Result<std::string> result = Status::Internal("unset");
    DIESEL_RETURN_IF_ERROR(fabric_.Call(
        clock, client, shard_node_[s], req, /*resp guess=*/256,
        [&](Nanos arrival) {
          result = shard.Get(key);
          uint64_t resp = result.ok() ? result.value().size() : 0;
          return shard.service().Serve(arrival, req + resp);
        }));
    return result;
  });
  // A NotFound Get is a semantic answer, not a failed op.
  metrics.Record(attempts,
                 final_result.status().IsNotFound() ? Status::Ok()
                                                    : final_result.status(),
                 span);
  return final_result;
}

Status KvCluster::Delete(sim::VirtualClock& clock, sim::NodeId client,
                         const std::string& key) {
  static OpMetrics metrics("delete");
  obs::ScopedSpan span(fabric_.tracer(), "kv.delete", clock, client);
  uint32_t s = OwnerShard(key);
  Shard& shard = *shards_[s];
  uint64_t req = key.size() + kOpOverheadBytes;
  uint32_t attempts = 0;
  Status final_status = options_.retry.Run(clock, [&]() -> Status {
    ++attempts;
    DIESEL_RETURN_IF_ERROR(CheckShardUp(s));
    Status op_status;
    DIESEL_RETURN_IF_ERROR(fabric_.Call(
        clock, client, shard_node_[s], req, kOpOverheadBytes,
        [&](Nanos arrival) {
          op_status = shard.Delete(key);
          return shard.service().Serve(arrival, req);
        }));
    return op_status;
  });
  metrics.Record(attempts, final_status, span);
  return final_status;
}

Status KvCluster::BatchPut(
    sim::VirtualClock& clock, sim::NodeId client,
    std::vector<std::pair<std::string, std::string>> entries) {
  static OpMetrics metrics("batch_put");
  obs::ScopedSpan span(fabric_.tracer(), "kv.batch_put", clock, client);
  // Group per owning shard, one pipelined RPC per shard.
  std::vector<uint32_t> owner(entries.size());
  std::vector<size_t> counts(shards_.size(), 0);
  for (size_t i = 0; i < entries.size(); ++i) {
    owner[i] = OwnerShard(entries[i].first);
    ++counts[owner[i]];
  }
  std::vector<std::vector<std::pair<std::string, std::string>>> per_shard(
      shards_.size());
  for (uint32_t s = 0; s < per_shard.size(); ++s) {
    per_shard[s].reserve(counts[s]);
  }
  for (size_t i = 0; i < entries.size(); ++i) {
    per_shard[owner[i]].push_back(std::move(entries[i]));
  }
  for (uint32_t s = 0; s < per_shard.size(); ++s) {
    auto& batch = per_shard[s];
    if (batch.empty()) continue;
    Shard& shard = *shards_[s];
    uint64_t req = 0;
    for (const auto& [k, v] : batch) {
      req += k.size() + v.size() + kOpOverheadBytes;
    }
    uint32_t attempts = 0;
    Status shard_status = options_.retry.Run(clock, [&]() -> Status {
      ++attempts;
      DIESEL_RETURN_IF_ERROR(CheckShardUp(s));
      Status op_status;
      DIESEL_RETURN_IF_ERROR(fabric_.Call(
          clock, client, shard_node_[s], req, kOpOverheadBytes,
          [&](Nanos arrival) {
            // Pipelined batch: the shard pays its per-command latency once
            // and a marginal per-entry cost for the rest (Redis pipelining).
            // The handler runs only once the request is delivered, and
            // nothing after it can fail the call, so the entries are moved
            // in; a down shard refuses the batch before moving anything,
            // leaving it intact for the retry.
            op_status = shard.PutBatch(batch);
            return shard.service().Serve(
                arrival, req, sim::kKvBatchEntryCost * (batch.size() - 1));
          }));
      return op_status;
    });
    metrics.Record(attempts, shard_status, span);
    if (!shard_status.ok()) return shard_status;
  }
  return Status::Ok();
}

Result<std::vector<std::optional<std::string>>> KvCluster::MGet(
    sim::VirtualClock& clock, sim::NodeId client,
    const std::vector<std::string>& keys) {
  static OpMetrics metrics("mget");
  obs::ScopedSpan span(fabric_.tracer(), "kv.mget", clock, client);
  std::vector<std::optional<std::string>> out(keys.size());
  // Group request indices per owning shard.
  std::vector<std::vector<size_t>> per_shard(shards_.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    per_shard[OwnerShard(keys[i])].push_back(i);
  }
  for (uint32_t s = 0; s < per_shard.size(); ++s) {
    const auto& indices = per_shard[s];
    if (indices.empty()) continue;
    Shard& shard = *shards_[s];
    uint64_t req = kOpOverheadBytes;
    for (size_t i : indices) req += keys[i].size();
    uint32_t attempts = 0;
    Status shard_status = options_.retry.Run(clock, [&]() -> Status {
      ++attempts;
      DIESEL_RETURN_IF_ERROR(CheckShardUp(s));
      return fabric_.Call(
          clock, client, shard_node_[s], req, kOpOverheadBytes,
          [&](Nanos arrival) {
            uint64_t resp = 0;
            for (size_t i : indices) {
              Result<std::string> v = shard.Get(keys[i]);
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
    metrics.Record(attempts, shard_status, span);
    DIESEL_RETURN_IF_ERROR(shard_status);
  }
  return out;
}

Status KvCluster::Scan(sim::VirtualClock& clock, sim::NodeId client,
                       std::string_view prefix, const ScanVisitor& visit,
                       size_t limit) {
  static OpMetrics metrics("pscan");
  obs::ScopedSpan span(fabric_.tracer(), "kv.pscan", clock, client);
  for (uint32_t s = 0; s < shards_.size(); ++s) {
    Shard& shard = *shards_[s];
    Status scan_status = Status::Internal("unset");
    uint32_t attempts = 0;
    Status shard_status = options_.retry.Run(clock, [&]() -> Status {
      ++attempts;
      DIESEL_RETURN_IF_ERROR(CheckShardUp(s));
      return fabric_.Call(
          clock, client, shard_node_[s], prefix.size() + kOpOverheadBytes,
          /*resp guess=*/1024,
          [&](Nanos arrival) {
            // The handler runs only once the request is delivered, and
            // nothing after it can fail the call, so it runs at most once.
            uint64_t resp = 0;
            scan_status = shard.Scan(
                prefix, limit, [&](std::string_view key, std::string_view value) {
                  resp += key.size() + value.size();
                  visit(s, key, value);
                });
            return shard.service().Serve(arrival, resp + kOpOverheadBytes);
          });
    });
    metrics.Record(attempts, shard_status, span);
    DIESEL_RETURN_IF_ERROR(shard_status);
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
