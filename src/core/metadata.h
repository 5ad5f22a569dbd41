// Metadata schema and FS-op -> KV-op translation (paper Fig. 5b, §4.1.1).
//
// Key layout in the key-value database (one namespace per dataset; dataset
// names are non-empty and contain no '/', so no dataset's prefix covers
// another's keys):
//   "D/<dataset>"                         -> DatasetMeta
//   "C/<dataset>/<chunk_id_b64>"          -> ChunkMeta
//   "F/<dataset>/<hex(hash(parent))>/d/<name>" -> "" (directory marker)
//   "F/<dataset>/<hex(hash(parent))>/f/<name>" -> FileMeta
//
// readdir(/folderA) == pscan(prefix "F/<ds>/<hash(/folderA)>/d/") union
//                      pscan(prefix "F/<ds>/<hash(/folderA)>/f/")
// exactly as described in the paper; stat/get of one file is a single KV get.
// (De)serialization happens here — in DIESEL server code — never inside the
// KV store (decoupling of metadata storage from metadata processing).
#pragma once

#include <algorithm>
#include <functional>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/bytes.h"
#include "common/status.h"
#include "core/chunk_format.h"
#include "core/chunk_id.h"
#include "kv/cluster.h"

namespace diesel::core {

struct FileMeta {
  ChunkId chunk;
  uint64_t offset = 0;        // of the file's bytes in the chunk object
  uint64_t length = 0;
  uint32_t crc = 0;
  uint32_t index_in_chunk = 0;  // position in the chunk's file table
  std::string full_name;

  Bytes Serialize() const;
  static Result<FileMeta> Deserialize(BytesView data);
};

struct ChunkMeta {
  uint64_t update_ts_ns = 0;
  uint64_t size = 0;          // serialized chunk bytes (header + payload)
  uint32_t header_len = 0;    // payload starts at this byte offset
  uint32_t num_files = 0;
  uint32_t num_deleted = 0;
  std::vector<uint8_t> deletion_bitmap;

  Bytes Serialize() const;
  static Result<ChunkMeta> Deserialize(BytesView data);
};

struct DatasetMeta {
  uint64_t update_ts_ns = 0;
  uint64_t num_chunks = 0;
  uint64_t num_files = 0;
  uint64_t total_bytes = 0;

  /// Move `update_ts_ns` strictly forward, to `ts` or one past its old
  /// value, whichever is later. Every update of the record calls this, so a
  /// snapshot taken before any update no longer matches (§4.1.3).
  void Touch(uint64_t ts) { update_ts_ns = std::max(update_ts_ns + 1, ts); }

  Bytes Serialize() const;
  static Result<DatasetMeta> Deserialize(BytesView data);
};

/// A directory listing entry.
struct DirEntry {
  std::string name;
  bool is_dir = false;
};

// ---- path helpers ----------------------------------------------------------

/// Normalized parent of an absolute path ("/a/b/c" -> "/a/b"; "/x" -> "/"):
/// a view into `path`, or of a static "/".
std::string_view ParentPath(std::string_view path);
/// Final component ("/a/b/c" -> "c"): a view into `path`.
std::string_view BaseName(std::string_view path);

/// InvalidArgument unless `dataset` is non-empty and free of '/'. Every
/// MetadataService entry point checks it: a '/' would make "F/<ds>/" a
/// prefix of another dataset's keys.
Status ValidateDatasetName(std::string_view dataset);

// ---- key construction ------------------------------------------------------

std::string DatasetKey(std::string_view dataset);
std::string ChunkKey(std::string_view dataset, const ChunkId& id);
std::string ChunkKeyPrefix(std::string_view dataset);
/// "F/<dataset>/": the pscan prefix of every file and directory key.
std::string FileKeyPrefix(std::string_view dataset);
std::string FileKey(std::string_view dataset, std::string_view full_path);
std::string DirMarkerKey(std::string_view dataset, std::string_view dir_path);
/// pscan prefixes for one directory's files / subdirectories.
std::string DirFilePrefix(std::string_view dataset, std::string_view dir_path);
std::string DirSubdirPrefix(std::string_view dataset, std::string_view dir_path);

/// Translates filesystem-flavoured metadata operations into KV operations
/// against the metadata tier, on behalf of a DIESEL server node.
class MetadataService {
 public:
  MetadataService(kv::KvCluster& kvstore, sim::NodeId server_node)
      : kv_(kvstore), node_(server_node) {}

  /// Register a chunk from its header in one pipelined batch put: the chunk
  /// record (create time, header length, entry count and deletion bitmap
  /// from the header; `blob_size` as its size), then one file record per
  /// live entry (its offset is header length + payload offset, so it
  /// addresses the stored object), each followed by its ancestor directory
  /// markers not yet queued. Ingest, recovery and housekeeping all register
  /// through here, so every record is a function of the header. Returns the
  /// number of file records written.
  Result<size_t> RegisterChunk(sim::VirtualClock& clock,
                               std::string_view dataset, const ChunkView& view,
                               uint64_t blob_size);

  /// Remove a chunk's record (its file records are the caller's business).
  Status DropChunk(sim::VirtualClock& clock, std::string_view dataset,
                   const ChunkId& id);

  Result<FileMeta> GetFile(sim::VirtualClock& clock, std::string_view dataset,
                           std::string_view path);

  /// Several file records in one multi-get batched per KV shard, in input
  /// order; NotFound names the first missing path.
  Result<std::vector<FileMeta>> GetFiles(sim::VirtualClock& clock,
                                         std::string_view dataset,
                                         std::span<const std::string> paths);

  Result<ChunkMeta> GetChunk(sim::VirtualClock& clock, std::string_view dataset,
                             const ChunkId& id);

  /// readdir: subdirectories then files, each name-sorted.
  Result<std::vector<DirEntry>> ListDir(sim::VirtualClock& clock,
                                        std::string_view dataset,
                                        std::string_view dir_path);

  /// All chunk IDs of a dataset in write (ID) order.
  Result<std::vector<ChunkId>> ListChunks(sim::VirtualClock& clock,
                                          std::string_view dataset);

  /// Every file record of a dataset in global key order, i.e. by (parent
  /// directory hash, base name), decoded straight from the shards' value
  /// bytes in one visiting scan. `expected` only sizes the buffers.
  Result<std::vector<FileMeta>> ListFiles(sim::VirtualClock& clock,
                                          std::string_view dataset,
                                          size_t expected = 0);

  Result<DatasetMeta> GetDataset(sim::VirtualClock& clock,
                                 std::string_view dataset);
  Status PutDataset(sim::VirtualClock& clock, std::string_view dataset,
                    const DatasetMeta& meta);

  /// Read-modify-write of the dataset record, serialized across this
  /// service's callers. A missing record starts empty; any other read error
  /// is returned and nothing is written. `update`, if given, edits the
  /// record under the lock, so it must not call UpdateDataset (an error from
  /// it skips the write); then the timestamp moves to `ts` with
  /// DatasetMeta::Touch.
  Status UpdateDataset(sim::VirtualClock& clock, std::string_view dataset,
                       uint64_t ts,
                       const std::function<Status(DatasetMeta&)>& update = {});

  /// Tombstone one file: remove its file key and flip its bit in the owning
  /// chunk's deletion bitmap (the chunk blob itself is untouched until
  /// housekeeping compacts it).
  Status DeleteFile(sim::VirtualClock& clock, std::string_view dataset,
                    std::string_view path);

  /// Remove every key of the dataset (DL_delete_dataset); returns the chunk
  /// IDs that were registered so the caller can delete the blobs.
  Result<std::vector<ChunkId>> DeleteDataset(sim::VirtualClock& clock,
                                             std::string_view dataset);

  sim::NodeId node() const { return node_; }

 private:
  kv::KvCluster& kv_;
  sim::NodeId node_;
  std::mutex dataset_mutex_;  // serializes UpdateDataset
};

}  // namespace diesel::core
