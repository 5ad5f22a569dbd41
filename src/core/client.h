// libDIESEL client (paper Table 3, §5).
//
// One DieselClient corresponds to one I/O process of a training task. It
// implements the write path (client-side aggregation of small files into
// >= 4MB chunks, Fig. 3), the read path (Fig. 4: task-grained cache ->
// server -> storage), and the metadata path (local snapshot, O(1) lookups).
//
// API mapping to Table 3:
//   DL_connect    -> constructor
//   DL_put        -> Put()            DL_flush   -> Flush()
//   DL_get        -> Get()            DL_stat    -> Stat()
//   DL_delete     -> Delete()         DL_ls      -> List()
//   DL_save_meta  -> SaveMeta()       DL_load_meta -> LoadMeta()
//   DL_shuffle    -> handled by shuffle::ShufflePlan over snapshot();
//                    EnableShuffle() wires the plan's group cache in
//   DL_close      -> Close()
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/retry.h"
#include "core/chunk_buffer.h"
#include "core/chunk_format.h"
#include "core/server.h"
#include "core/snapshot.h"
#include "net/fabric.h"
#include "ostore/object_store.h"

namespace diesel::core {

/// Read-side delegate: the task-grained distributed cache (cache module)
/// implements this; when attached, Get() routes through it (Fig. 4).
class DatasetCacheInterface {
 public:
  virtual ~DatasetCacheInterface() = default;
  virtual Result<FileSlice> GetFile(sim::VirtualClock& clock,
                                    const FileMeta& meta) = 0;
};

struct ClientOptions {
  std::string dataset;
  sim::NodeId node = 0;
  uint32_t client_index = 0;  // endpoint index on the node (rank tiebreak)
  uint64_t chunk_target_bytes = kDefaultChunkTarget;
};

struct ClientStats {
  uint64_t local_metadata_hits = 0;   // served from the loaded snapshot
  uint64_t server_metadata_ops = 0;
  uint64_t files_written = 0;
  uint64_t chunks_flushed = 0;
  uint64_t files_read = 0;
  uint64_t bytes_read = 0;
  /// Requests steered away from a server whose node looked down.
  uint64_t server_failovers = 0;
  /// Virtual time at which the last flushed chunk became durable server-side
  /// (write-behind: the client clock does not wait for this).
  Nanos last_ingest_durable_ns = 0;
};

class DieselClient {
 public:
  /// DL_connect. `servers` must be non-empty and outlive the client;
  /// requests round-robin across them.
  DieselClient(net::Fabric& fabric, std::vector<DieselServer*> servers,
               ClientOptions options);

  sim::VirtualClock& clock() { return clock_; }
  const ClientOptions& options() const { return options_; }
  const ClientStats& stats() const { return stats_; }
  net::EndpointId endpoint() const {
    return {options_.node, options_.client_index};
  }
  const std::string& dataset() const { return options_.dataset; }

  // ---- write path ----------------------------------------------------------

  /// DL_put: append a file to the current in-flight chunk; flushes
  /// automatically when the chunk reaches the target size.
  ///
  /// Write-phase semantics: Put assumes `path` is fresh. Per §4.1.1 DIESEL
  /// modifies a file "by first deleting the old file and then writing a new
  /// file": Delete it, then Put and Flush the new content. A bare Put over
  /// an existing path would leave the old copy unaccounted in its chunk.
  Status Put(const std::string& path, BytesView content);

  /// DL_flush: push any partially-filled chunk to a server.
  Status Flush();

  // ---- read path -----------------------------------------------------------

  /// DL_get. Resolution order (Fig. 4): metadata via snapshot if loaded;
  /// content via attached task cache, else via server.
  Result<Bytes> Get(const std::string& path);

  // ---- metadata path -------------------------------------------------------

  /// DL_stat.
  Result<FileMeta> Stat(const std::string& path);

  /// DL_ls.
  Result<std::vector<DirEntry>> List(const std::string& dir_path);

  /// DL_delete.
  Status Delete(const std::string& path);

  /// Download + install the dataset snapshot straight from a server.
  Status FetchSnapshot();

  /// DL_save_meta: persist the installed snapshot to `local_disk`.
  Status SaveMeta(ostore::ObjectStore& local_disk, const std::string& key);

  /// DL_load_meta: load a snapshot from `local_disk`; verifies dataset name
  /// and update timestamp against the KV record and fails Stale on mismatch
  /// (§4.1.3 "users need to download a new metadata snapshot").
  Status LoadMeta(ostore::ObjectStore& local_disk, const std::string& key);

  const MetadataSnapshot* snapshot() const {
    return snapshot_ ? &*snapshot_ : nullptr;
  }

  /// Attach/detach the task-grained distributed cache (cache module).
  void AttachCache(DatasetCacheInterface* cache) { cache_ = cache; }
  DatasetCacheInterface* cache() { return cache_; }

  /// DL_close: drop snapshot and cache attachment.
  void Close();

  DieselServer* PickServer();

 private:
  Result<FileMeta> ResolveMeta(const std::string& path);

  /// Drive `fn(server)` under the default retry policy, re-picking the
  /// server on every attempt so a flapped server fails over to its peers
  /// instead of failing the op.
  template <typename T, typename Fn>
  Result<T> WithServerRetry(Fn&& fn) {
    return RetryPolicy{}.RunResult<T>(
        clock_, [&]() -> Result<T> { return fn(*PickServer()); });
  }
  template <typename Fn>
  Status WithServerRetryStatus(Fn&& fn) {
    return RetryPolicy{}.Run(clock_,
                             [&]() -> Status { return fn(*PickServer()); });
  }

  net::Fabric& fabric_;
  std::vector<DieselServer*> servers_;
  ClientOptions options_;
  sim::VirtualClock clock_;
  ClientStats stats_;

  ChunkBuilder builder_;
  ChunkIdGenerator id_gen_;

  std::optional<MetadataSnapshot> snapshot_;
  DatasetCacheInterface* cache_ = nullptr;
  size_t next_server_ = 0;
};

}  // namespace diesel::core
