#include "core/server.h"

#include <algorithm>
#include <cassert>
#include <numeric>

#include "common/retry.h"
#include "core/chunk_format.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/calibration.h"

namespace diesel::core {
namespace {

constexpr uint64_t kRpcOverheadBytes = 96;

sim::DeviceSpec ServerServiceSpec(sim::NodeId node) {
  // Bounded per-server capacity: 8 executor threads, ~30us per request.
  // One server therefore caps near ~267k metadata QPS; the Fig. 10a curves
  // (1/3/5 servers) come from this ceiling and the KV tier's ~1M ceiling.
  return {.name = "diesel-server" + std::to_string(node) + "/svc",
          .channels = 8, .latency = Micros(30), .bytes_per_sec = 6.0e9};
}

/// `bytes` of a response that the server has ready at `ready`.
struct StreamedPart {
  Nanos ready = 0;
  uint64_t bytes = 0;
};

/// Streamed response (ReadFiles, ReadChunks): each part's bytes start
/// crossing the client's `nic` as soon as the server has them rather than
/// after the whole response is assembled, so backend reads and transfers
/// pipeline exactly as they would from the same number of unbatched calls.
/// The NIC serializes overlapping serves on its own timeline. `clock` moves
/// to when the last part has arrived, and never back.
void StreamResponse(sim::Device& nic, sim::VirtualClock& clock,
                    std::span<const StreamedPart> parts) {
  Nanos t = clock.now();
  for (const StreamedPart& p : parts) {
    if (p.bytes > 0) t = std::max(t, nic.Serve(p.ready, p.bytes));
  }
  clock.AdvanceTo(t);
}

}  // namespace

std::string ChunkObjectKey(std::string_view dataset, const ChunkId& id) {
  return ChunkObjectPrefix(dataset) + id.Encoded();
}

std::string ChunkObjectPrefix(std::string_view dataset) {
  return "O/" + std::string(dataset) + "/";
}

DieselServer::DieselServer(net::Fabric& fabric, kv::KvCluster& kvstore,
                           ostore::ObjectStore& store, ServerOptions options)
    : fabric_(fabric), meta_(kvstore, options.node), store_(store),
      options_(options), service_(ServerServiceSpec(options.node)) {
  service_.BindMetrics("n" + std::to_string(options_.node));
}

Nanos DieselServer::IngestChunkAt(Nanos arrival, const std::string& dataset,
                                  const SharedBytes& chunk,
                                  Status& out_status) {
  static obs::Counter& ingests =
      obs::Metrics().GetCounter("core.chunk.ingests");
  static obs::Counter& ingest_bytes =
      obs::Metrics().GetCounter("core.chunk.ingest_bytes");
  static obs::Counter& parse_failures =
      obs::Metrics().GetCounter("core.chunk.parse_failures");
  sim::VirtualClock srv(service_.Serve(arrival, chunk->size()));
  obs::ScopedSpan span(fabric_.tracer(), "server.ingest_chunk", srv,
                       options_.node);

  Result<ChunkView> view = ChunkView::Parse(*chunk);
  if (!view.ok()) {
    parse_failures.Inc();
    span.Note("chunk.parse_failed: " + view.status().message());
    out_status = view.status();
    return srv.now();
  }
  ingests.Inc();
  ingest_bytes.Inc(chunk->size());

  // Blob to object storage, once the name is known to be a valid key
  // namespace (the metadata put would refuse it, orphaning the blob).
  out_status = ValidateDatasetName(dataset);
  if (!out_status.ok()) return srv.now();
  std::string key = ChunkObjectKey(dataset, view->id());
  out_status = store_.Put(srv, options_.node, key, chunk);
  if (!out_status.ok()) return srv.now();

  // Header -> key-value records.
  Result<size_t> files =
      meta_.RegisterChunk(srv, dataset, *view, chunk->size());
  if (!files.ok()) {
    out_status = files.status();
    return srv.now();
  }

  // Dataset record read-modify-write, serialized across concurrent ingests.
  out_status = meta_.UpdateDataset(
      srv, dataset, view->create_ts_ns(), [&](DatasetMeta& dm) {
        dm.num_chunks += 1;
        dm.num_files += *files;
        dm.total_bytes += chunk->size();
        return Status::Ok();
      });
  return srv.now();
}

Result<Nanos> DieselServer::IngestChunkAsync(sim::VirtualClock& clock,
                                             sim::NodeId client,
                                             const std::string& dataset,
                                             SharedBytes chunk) {
  Status op_status;
  Nanos durable_at = 0;
  DIESEL_RETURN_IF_ERROR(fabric_.Send(
      clock, client, options_.node, chunk->size() + kRpcOverheadBytes,
      [&](Nanos delivered) {
        durable_at = IngestChunkAt(delivered, dataset, chunk, op_status);
      }));
  DIESEL_RETURN_IF_ERROR(op_status);
  return durable_at;
}

Result<Bytes> DieselServer::ReadFile(sim::VirtualClock& clock,
                                     sim::NodeId client,
                                     const std::string& dataset,
                                     const std::string& path) {
  std::vector<std::string> one{path};
  DIESEL_ASSIGN_OR_RETURN(std::vector<Bytes> r,
                          ReadFiles(clock, client, dataset, one));
  return std::move(r.front());
}

Result<std::vector<Bytes>> DieselServer::ReadFiles(
    sim::VirtualClock& clock, sim::NodeId client, const std::string& dataset,
    std::span<const std::string> paths) {
  static obs::Counter& file_reads =
      obs::Metrics().GetCounter("core.file.reads");
  static obs::Counter& file_read_bytes =
      obs::Metrics().GetCounter("core.file.read_bytes");
  Result<std::vector<Bytes>> result = Status::Internal("unset");
  std::vector<StreamedPart> parts;  // one per merged range
  uint64_t req_bytes = kRpcOverheadBytes;
  for (const auto& p : paths) req_bytes += p.size();

  DIESEL_RETURN_IF_ERROR(fabric_.Call(
      clock, client, options_.node, req_bytes, kRpcOverheadBytes,
      [&](Nanos arrival) {
        sim::VirtualClock srv(
            service_.Serve(arrival, 0,
                           sim::kServerExecutorCost * paths.size()));
        obs::ScopedSpan span(fabric_.tracer(), "server.read_files", srv,
                             options_.node);
        span.Note("files=" + std::to_string(paths.size()));

        // 1. Metadata lookups, batched per KV shard (pipelined MGET).
        Result<std::vector<FileMeta>> found =
            meta_.GetFiles(srv, dataset, paths);
        if (!found.ok()) {
          result = found.status();
          return srv.now();
        }
        const std::vector<FileMeta>& metas = found.value();

        // 2. Sort request indices by (chunk, offset) and merge adjacent
        //    ranges into chunk-wise reads.
        std::vector<size_t> order(paths.size());
        std::iota(order.begin(), order.end(), size_t{0});
        std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
          if (metas[a].chunk != metas[b].chunk)
            return metas[a].chunk < metas[b].chunk;
          return metas[a].offset < metas[b].offset;
        });

        // 3. Read the ranges the way ReadChunks reads chunks: each on the
        //    store stream that is free earliest. File offsets address the
        //    stored object, so no chunk record is needed.
        std::vector<Bytes> contents(paths.size());
        std::vector<sim::VirtualClock> streams(kStoreStreams, srv);
        std::string key;  // object key of the chunk being read
        size_t i = 0;
        while (i < order.size()) {
          // Grow a merged range [lo, hi) within one chunk.
          const ChunkId& chunk = metas[order[i]].chunk;
          if (i == 0 || metas[order[i - 1]].chunk != chunk)
            key = ChunkObjectKey(dataset, chunk);
          uint64_t lo = metas[order[i]].offset;
          uint64_t hi = lo + metas[order[i]].length;
          size_t j = i + 1;
          while (j < order.size() && metas[order[j]].chunk == chunk) {
            uint64_t b = metas[order[j]].offset;
            uint64_t e = b + metas[order[j]].length;
            if (b > hi + options_.merge_gap_bytes) break;
            hi = std::max(hi, e);
            ++j;
          }
          sim::VirtualClock& stream = sim::EarliestStream(streams);
          Result<Bytes> range =
              store_.GetRange(stream, options_.node, key, lo, hi - lo);
          if (!range.ok()) {
            result = range.status();
            return srv.now();
          }
          uint64_t range_bytes = 0;
          for (size_t k = i; k < j; ++k) {
            const FileMeta& fm = metas[order[k]];
            contents[order[k]].assign(
                range.value().begin() +
                    static_cast<ptrdiff_t>(fm.offset - lo),
                range.value().begin() +
                    static_cast<ptrdiff_t>(fm.offset - lo + fm.length));
            range_bytes += fm.length;
          }
          parts.push_back({stream.now(), range_bytes});
          i = j;
        }
        srv.AdvanceTo(sim::LatestStream(streams));
        file_reads.Inc(paths.size());
        uint64_t total = 0;
        for (const Bytes& b : contents) total += b.size();
        file_read_bytes.Inc(total);
        result = std::move(contents);
        return srv.now();
      }));
  if (result.ok()) {
    StreamResponse(fabric_.cluster().node(client).nic(), clock, parts);
  }
  return result;
}

Result<SharedBytes> DieselServer::ReadChunk(sim::VirtualClock& clock,
                                            sim::NodeId client,
                                            const std::string& dataset,
                                            const ChunkId& id) {
  static obs::Counter& chunk_reads =
      obs::Metrics().GetCounter("core.chunk.reads");
  static obs::Counter& chunk_read_bytes =
      obs::Metrics().GetCounter("core.chunk.read_bytes");
  Result<SharedBytes> result = Status::Internal("unset");
  DIESEL_RETURN_IF_ERROR(fabric_.Call(
      clock, client, options_.node, kRpcOverheadBytes, kRpcOverheadBytes,
      [&](Nanos arrival) {
        sim::VirtualClock srv(service_.Serve(arrival, 0));
        obs::ScopedSpan span(fabric_.tracer(), "server.read_chunk", srv,
                             options_.node);
        result = store_.Get(srv, options_.node, ChunkObjectKey(dataset, id));
        if (result.ok()) {
          chunk_reads.Inc();
          chunk_read_bytes.Inc(result.value()->size());
        }
        return srv.now();
      }));
  // The Call's response leg carries only the RPC framing; the chunk's bytes
  // then cross the client NIC in one serve, once the response is back. Not
  // streamed like ReadChunks: the task cache loads its chunks through this
  // call, and its timing model is this one.
  if (result.ok() && !result.value()->empty()) {
    Nanos t = fabric_.cluster().node(client).nic().Serve(
        clock.now(), result.value()->size());
    clock.AdvanceTo(t);
  }
  return result;
}

Result<std::vector<SharedBytes>> DieselServer::ReadChunks(
    sim::VirtualClock& clock, sim::NodeId client, const std::string& dataset,
    std::span<const ChunkId> ids, size_t fetch_streams) {
  static obs::Counter& chunk_reads =
      obs::Metrics().GetCounter("core.chunk.reads");
  static obs::Counter& chunk_read_bytes =
      obs::Metrics().GetCounter("core.chunk.read_bytes");
  if (ids.empty()) return std::vector<SharedBytes>{};
  std::vector<Result<SharedBytes>> blobs(ids.size(),
                                         Status::Internal("unset"));
  std::vector<StreamedPart> parts(ids.size());
  DIESEL_RETURN_IF_ERROR(fabric_.CallBatch(
      clock, client, options_.node, ids.size(),
      kRpcOverheadBytes * ids.size(), kRpcOverheadBytes, [&](Nanos arrival) {
        sim::VirtualClock srv(service_.Serve(arrival, 0));
        obs::ScopedSpan span(fabric_.tracer(), "server.read_chunks", srv,
                             options_.node);
        span.Note("k=" + std::to_string(ids.size()));
        // Pull the blobs on parallel store streams: the earliest-finishing
        // stream picks up the next chunk, so backend parallelism matches the
        // same number of unbatched calls from that many client streams.
        const size_t streams = std::max<size_t>(1, fetch_streams);
        std::vector<sim::VirtualClock> clocks(std::min(streams, ids.size()),
                                              srv);
        for (size_t i = 0; i < ids.size(); ++i) {
          sim::VirtualClock& stream = sim::EarliestStream(clocks);
          blobs[i] = store_.Get(stream, options_.node,
                                ChunkObjectKey(dataset, ids[i]));
          if (blobs[i].ok()) {
            parts[i] = {stream.now(), blobs[i].value()->size()};
            chunk_reads.Inc();
            chunk_read_bytes.Inc(blobs[i].value()->size());
          }
        }
        return sim::LatestStream(clocks);
      }));
  std::vector<SharedBytes> out;
  out.reserve(ids.size());
  for (Result<SharedBytes>& b : blobs) {
    DIESEL_RETURN_IF_ERROR(b.status());
    out.push_back(std::move(b.value()));
  }
  StreamResponse(fabric_.cluster().node(client).nic(), clock, parts);
  return out;
}

Result<FileMeta> DieselServer::StatFile(sim::VirtualClock& clock,
                                        sim::NodeId client,
                                        const std::string& dataset,
                                        const std::string& path) {
  Result<FileMeta> result = Status::Internal("unset");
  DIESEL_RETURN_IF_ERROR(fabric_.Call(
      clock, client, options_.node, path.size() + kRpcOverheadBytes,
      kRpcOverheadBytes, [&](Nanos arrival) {
        sim::VirtualClock srv(service_.Serve(arrival, 0));
        result = meta_.GetFile(srv, dataset, path);
        return srv.now();
      }));
  return result;
}

Result<std::vector<DirEntry>> DieselServer::ListDir(sim::VirtualClock& clock,
                                                    sim::NodeId client,
                                                    const std::string& dataset,
                                                    const std::string& dir) {
  Result<std::vector<DirEntry>> result = Status::Internal("unset");
  DIESEL_RETURN_IF_ERROR(fabric_.Call(
      clock, client, options_.node, dir.size() + kRpcOverheadBytes,
      kRpcOverheadBytes, [&](Nanos arrival) {
        sim::VirtualClock srv(service_.Serve(arrival, 0));
        result = meta_.ListDir(srv, dataset, dir);
        return srv.now();
      }));
  return result;
}

Result<DatasetMeta> DieselServer::GetDatasetMeta(sim::VirtualClock& clock,
                                                 sim::NodeId client,
                                                 const std::string& dataset) {
  Result<DatasetMeta> result = Status::Internal("unset");
  DIESEL_RETURN_IF_ERROR(fabric_.Call(
      clock, client, options_.node, kRpcOverheadBytes, kRpcOverheadBytes,
      [&](Nanos arrival) {
        sim::VirtualClock srv(service_.Serve(arrival, 0));
        result = meta_.GetDataset(srv, dataset);
        return srv.now();
      }));
  return result;
}

Result<MetadataSnapshot> DieselServer::BuildSnapshot(
    sim::VirtualClock& clock, sim::NodeId client, const std::string& dataset) {
  Result<MetadataSnapshot> result = Status::Internal("unset");
  DIESEL_RETURN_IF_ERROR(fabric_.Call(
      clock, client, options_.node, kRpcOverheadBytes, kRpcOverheadBytes,
      [&](Nanos arrival) {
        sim::VirtualClock srv(service_.Serve(arrival, 0));
        Result<DatasetMeta> dm = meta_.GetDataset(srv, dataset);
        if (!dm.ok()) {
          result = dm.status();
          return srv.now();
        }
        Result<std::vector<ChunkId>> chunks = meta_.ListChunks(srv, dataset);
        if (!chunks.ok()) {
          result = chunks.status();
          return srv.now();
        }
        Result<std::vector<FileMeta>> files =
            meta_.ListFiles(srv, dataset, dm.value().num_files);
        if (!files.ok()) {
          result = files.status();
          return srv.now();
        }
        result = MetadataSnapshot::Create(dataset, dm.value().update_ts_ns,
                                          std::move(chunks).value(),
                                          std::move(files).value());
        return srv.now();
      }));
  if (result.ok()) {
    // Snapshot bytes stream back to the client.
    Nanos t = fabric_.cluster().node(client).nic().Serve(
        clock.now(), result.value().num_files() * 48);
    clock.AdvanceTo(t);
  }
  return result;
}

Status DieselServer::DeleteFile(sim::VirtualClock& clock, sim::NodeId client,
                                const std::string& dataset,
                                const std::string& path) {
  Status op_status;
  DIESEL_RETURN_IF_ERROR(fabric_.Call(
      clock, client, options_.node, path.size() + kRpcOverheadBytes,
      kRpcOverheadBytes, [&](Nanos arrival) {
        sim::VirtualClock srv(service_.Serve(arrival, 0));
        op_status = meta_.DeleteFile(srv, dataset, path);
        if (!op_status.ok()) return srv.now();
        // Move the dataset's timestamp so snapshots that still hold the
        // file fail the freshness check.
        op_status = meta_.UpdateDataset(srv, dataset, srv.now());
        return srv.now();
      }));
  return op_status;
}

Status DieselServer::DeleteDataset(sim::VirtualClock& clock,
                                   sim::NodeId client,
                                   const std::string& dataset) {
  Status op_status;
  DIESEL_RETURN_IF_ERROR(fabric_.Call(
      clock, client, options_.node, kRpcOverheadBytes, kRpcOverheadBytes,
      [&](Nanos arrival) {
        sim::VirtualClock srv(service_.Serve(arrival, 0));
        Result<std::vector<ChunkId>> chunks =
            meta_.DeleteDataset(srv, dataset);
        if (!chunks.ok()) {
          op_status = chunks.status();
          return srv.now();
        }
        for (const ChunkId& id : chunks.value()) {
          (void)store_.Delete(srv, options_.node,
                              ChunkObjectKey(dataset, id));
        }
        op_status = Status::Ok();
        return srv.now();
      }));
  return op_status;
}

Result<RecoveryStats> DieselServer::RecoverMetadata(sim::VirtualClock& clock,
                                                    const std::string& dataset,
                                                    uint32_t from_ts_sec) {
  RecoveryStats stats;
  // Recovery typically runs while the cluster is still unhealthy, so the
  // object-store reads (List / GetRange / Size) retry: a transient drop must
  // not abort the whole redrive.
  const RetryPolicy rp{};
  DIESEL_ASSIGN_OR_RETURN(
      std::vector<std::string> keys,
      rp.RunResult<std::vector<std::string>>(clock, [&] {
        return store_.List(clock, options_.node, ChunkObjectPrefix(dataset));
      }));
  // Keys are lexicographically sorted == chunk write order (base64lex).
  DatasetMeta dm;
  size_t prefix = ChunkObjectPrefix(dataset).size();
  for (const std::string& key : keys) {
    DIESEL_ASSIGN_OR_RETURN(ChunkId id,
                            ChunkId::FromEncoded(key.substr(prefix)));
    if (from_ts_sec != 0 && id.timestamp_sec() < from_ts_sec) continue;
    // Header-only read: peek the header length, then fetch just the header.
    DIESEL_ASSIGN_OR_RETURN(Bytes first12,
                            rp.RunResult<Bytes>(clock, [&] {
                              return store_.GetRange(clock, options_.node,
                                                     key, 0, 12);
                            }));
    DIESEL_ASSIGN_OR_RETURN(uint32_t header_len,
                            ChunkView::PeekHeaderLen(first12));
    DIESEL_ASSIGN_OR_RETURN(Bytes header,
                            rp.RunResult<Bytes>(clock, [&] {
                              return store_.GetRange(clock, options_.node,
                                                     key, 0, header_len);
                            }));
    stats.header_bytes_read += header_len + 12;
    DIESEL_ASSIGN_OR_RETURN(ChunkView view, ChunkView::ParseHeaderOnly(header));

    DIESEL_ASSIGN_OR_RETURN(uint64_t blob_size,
                            rp.RunResult<uint64_t>(clock, [&] {
                              return store_.Size(clock, options_.node, key);
                            }));
    DIESEL_ASSIGN_OR_RETURN(
        size_t files, meta_.RegisterChunk(clock, dataset, view, blob_size));

    dm.Touch(view.create_ts_ns());
    dm.num_chunks += 1;
    dm.num_files += files;
    dm.total_bytes += blob_size;
    stats.chunks_scanned += 1;
    stats.files_recovered += files;
  }
  if (from_ts_sec == 0) {
    DIESEL_RETURN_IF_ERROR(meta_.PutDataset(clock, dataset, dm));
  } else {
    // Partial recovery: merge into the existing record if any. Recovered
    // chunks may or may not already be counted; recount them from the
    // authoritative chunk list to stay exact.
    DIESEL_RETURN_IF_ERROR(meta_.UpdateDataset(
        clock, dataset, dm.update_ts_ns, [&](DatasetMeta& merged) -> Status {
          DIESEL_ASSIGN_OR_RETURN(std::vector<ChunkId> all,
                                  meta_.ListChunks(clock, dataset));
          merged.num_chunks = all.size();
          return Status::Ok();
        }));
  }
  return stats;
}

}  // namespace diesel::core
