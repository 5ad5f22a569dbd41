// DIESEL server (Fig. 2, Fig. 3, Fig. 4).
//
// Sits between clients and the underlying systems: it hides the key-value
// metadata tier and the chunk object-store behind one interface, extracts
// metadata from self-contained chunk headers on ingest, executes read
// requests by sorting/merging small file requests into chunk-wise range
// reads, materializes metadata snapshots, and rebuilds the KV tier from
// chunk headers after metadata loss (§4.1.2 scenarios a and b).
//
// Each server instance runs on one simulated node with a bounded service
// capacity — deploying more servers scales the metadata plane until the KV
// tier's ceiling is reached (Fig. 10a).
#pragma once

#include <span>
#include <string>
#include <vector>

#include "common/retry.h"
#include "core/metadata.h"
#include "core/snapshot.h"
#include "kv/cluster.h"
#include "net/fabric.h"
#include "ostore/object_store.h"
#include "sim/device.h"

namespace diesel::core {

struct ServerOptions {
  sim::NodeId node = 0;
  /// Merge adjacent file ranges within a chunk when the gap is at most this
  /// many bytes (request executor).
  uint64_t merge_gap_bytes = 64 * 1024;
  /// Retry for the object-store reads RecoverMetadata drives (List /
  /// GetRange / Size). Recovery typically runs while the cluster is still
  /// unhealthy, so a transient drop must not abort the whole redrive.
  RetryPolicy recovery_retry{};
};

struct RecoveryStats {
  size_t chunks_scanned = 0;
  size_t files_recovered = 0;
  uint64_t header_bytes_read = 0;
};

/// Parallel object-store streams one server request reads on: the chunk
/// ranges of a ReadFiles batch, and by default the chunks of ReadChunks and
/// PrefetchDataset.
inline constexpr size_t kStoreStreams = 8;

/// Object-store key of a chunk blob.
std::string ChunkObjectKey(std::string_view dataset, const ChunkId& id);
std::string ChunkObjectPrefix(std::string_view dataset);

class DieselServer {
 public:
  DieselServer(net::Fabric& fabric, kv::KvCluster& kvstore,
               ostore::ObjectStore& store, ServerOptions options);

  sim::NodeId node() const { return options_.node; }
  net::Fabric& fabric() { return fabric_; }
  MetadataService& metadata() { return meta_; }
  ostore::ObjectStore& store() { return store_; }
  sim::Device& service() { return service_; }

  // All client-facing calls pay: client->server RPC + server service time +
  // whatever backend work the op needs, and advance the caller's clock.

  /// Store one serialized chunk under `dataset` (write flow, Fig. 3): blob
  /// to object storage, header-extracted key-value pairs to the KV tier
  /// (MetadataService::RegisterChunk). Write-behind (DL_flush semantics:
  /// "flush local buffer"): the caller's clock advances only past the
  /// network send; server-side work is charged to the shared devices and the
  /// returned value is the virtual time at which the chunk became fully
  /// durable. The store keeps `chunk` by reference; nobody may mutate it
  /// afterwards.
  Result<Nanos> IngestChunkAsync(sim::VirtualClock& clock, sim::NodeId client,
                                 const std::string& dataset,
                                 SharedBytes chunk);

  /// Read one file (metadata lookup + chunk range read).
  Result<Bytes> ReadFile(sim::VirtualClock& clock, sim::NodeId client,
                         const std::string& dataset, const std::string& path);

  /// Request executor: read a batch of files, sorted and merged into
  /// chunk-wise range reads (§4 "sorts and merges small file requests").
  /// One KV multi-get finds the files; each file record addresses the
  /// stored chunk object, so the ranges go straight to the store, on
  /// kStoreStreams parallel streams like ReadChunks. Results are returned in
  /// input order.
  Result<std::vector<Bytes>> ReadFiles(sim::VirtualClock& clock,
                                       sim::NodeId client,
                                       const std::string& dataset,
                                       std::span<const std::string> paths);

  /// Fetch one whole chunk (task-grained cache loading path): the store's
  /// shared blob, not a copy.
  Result<SharedBytes> ReadChunk(sim::VirtualClock& clock, sim::NodeId client,
                                const std::string& dataset, const ChunkId& id);

  /// Fetch several whole chunks in ONE coalesced RPC (shuffle group windows,
  /// preload bursts). The request goes out as a Fabric::CallBatch — the
  /// per-RPC overhead is paid once for the batch — and the server pulls the
  /// blobs from the store on `fetch_streams` parallel service streams, so
  /// the backend parallelism matches `ids.size()` unbatched calls issued
  /// from that many client streams. Results are in input order; a missing
  /// chunk fails the whole call, like the per-chunk path would.
  Result<std::vector<SharedBytes>> ReadChunks(sim::VirtualClock& clock,
                                              sim::NodeId client,
                                              const std::string& dataset,
                                              std::span<const ChunkId> ids,
                                              size_t fetch_streams =
                                                  kStoreStreams);

  Result<FileMeta> StatFile(sim::VirtualClock& clock, sim::NodeId client,
                            const std::string& dataset,
                            const std::string& path);

  Result<std::vector<DirEntry>> ListDir(sim::VirtualClock& clock,
                                        sim::NodeId client,
                                        const std::string& dataset,
                                        const std::string& dir_path);

  Result<DatasetMeta> GetDatasetMeta(sim::VirtualClock& clock,
                                     sim::NodeId client,
                                     const std::string& dataset);

  /// Materialize the dataset's metadata snapshot (download path, Fig. 2).
  Result<MetadataSnapshot> BuildSnapshot(sim::VirtualClock& clock,
                                         sim::NodeId client,
                                         const std::string& dataset);

  /// Tombstone one file (MetadataService::DeleteFile) and move the dataset
  /// record's timestamp, so snapshots that still list the file are stale.
  Status DeleteFile(sim::VirtualClock& clock, sim::NodeId client,
                    const std::string& dataset, const std::string& path);

  Status DeleteDataset(sim::VirtualClock& clock, sim::NodeId client,
                       const std::string& dataset);

  /// Server cache warming (Fig. 4): "if a cache miss occurs on the
  /// server-side, the server will start to cache the dataset in the
  /// background" — pull every chunk of `dataset` through the (tiered) store
  /// with `streams` parallel fetches so subsequent reads hit the fast tier.
  /// Returns the virtual time the warm-up finished. Runs server-side.
  Result<Nanos> PrefetchDataset(sim::VirtualClock& clock,
                                const std::string& dataset,
                                size_t streams = kStoreStreams);

  /// Rebuild KV metadata by scanning chunk headers from object storage in
  /// write order. `from_ts_sec == 0` scans everything (scenario b: total KV
  /// loss); otherwise only chunks stamped at or after the watermark
  /// (scenario a: recent keys lost). Runs on the server, not via client RPC.
  Result<RecoveryStats> RecoverMetadata(sim::VirtualClock& clock,
                                        const std::string& dataset,
                                        uint32_t from_ts_sec);

 private:
  /// Server-side ingest work; runs at `arrival`, returns completion time.
  Nanos IngestChunkAt(Nanos arrival, const std::string& dataset,
                      const SharedBytes& chunk, Status& out_status);

  net::Fabric& fabric_;
  MetadataService meta_;
  ostore::ObjectStore& store_;
  ServerOptions options_;
  sim::Device service_;
};

}  // namespace diesel::core
