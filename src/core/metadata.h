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

#include <string>
#include <string_view>
#include <vector>

#include "common/bytes.h"
#include "common/status.h"
#include "core/chunk_id.h"
#include "kv/cluster.h"

namespace diesel::core {

struct FileMeta {
  ChunkId chunk;
  uint64_t offset = 0;        // payload-relative within the chunk
  uint64_t length = 0;
  uint32_t crc = 0;
  uint32_t index_in_chunk = 0;  // position in the chunk's file table
  std::string full_name;

  Bytes Serialize() const;
  void SerializeTo(BinaryWriter& w) const;
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

  /// Register a batch of files plus their chunk record, and every ancestor
  /// directory marker (pipelined batch put).
  Status AddChunk(sim::VirtualClock& clock, std::string_view dataset,
                  const ChunkId& id, const ChunkMeta& chunk_meta,
                  const std::vector<FileMeta>& files);

  Result<FileMeta> GetFile(sim::VirtualClock& clock, std::string_view dataset,
                           std::string_view path);

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

  /// Tombstone one file: remove its file key and flip its bit in the owning
  /// chunk's deletion bitmap (the chunk blob itself is untouched until
  /// housekeeping compacts it).
  Status DeleteFile(sim::VirtualClock& clock, std::string_view dataset,
                    std::string_view path);

  /// Remove every key of the dataset (DL_delete_dataset); returns the chunk
  /// IDs that were registered so the caller can delete the blobs.
  Result<std::vector<ChunkId>> DeleteDataset(sim::VirtualClock& clock,
                                             std::string_view dataset);

  kv::KvCluster& kvstore() { return kv_; }
  sim::NodeId node() const { return node_; }

 private:
  kv::KvCluster& kv_;
  sim::NodeId node_;
};

}  // namespace diesel::core
