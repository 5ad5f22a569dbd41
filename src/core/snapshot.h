// Per-dataset metadata snapshot (§4.1.3).
//
// A compact, immutable materialization of one dataset's metadata: the
// dataset update timestamp, the chunk ID list, and per-file records
// (chunk, offset, length, full name). Clients download it once, load it
// into an in-memory open-addressing hash map, and serve every subsequent
// metadata operation locally in O(1) — bypassing the metadata servers
// entirely, which is what makes metadata QPS scale linearly with client
// count (Fig. 10b). The filesystem hierarchy is reconstructed from the full
// file names at load time.
#pragma once

#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/bytes.h"
#include "common/flat_hash_map.h"
#include "common/status.h"
#include "core/metadata.h"

namespace diesel::core {

/// A directory listing entry that views a name owned by the snapshot.
struct DirEntryView {
  std::string_view name;
  bool is_dir = false;
};

class MetadataSnapshot {
 public:
  MetadataSnapshot() = default;
  // The derived indexes view the file names. A move keeps the names in
  // place; a copy rebuilds the indexes over its own names.
  MetadataSnapshot(MetadataSnapshot&&) = default;
  MetadataSnapshot& operator=(MetadataSnapshot&&) = default;
  MetadataSnapshot(const MetadataSnapshot& other);
  MetadataSnapshot& operator=(const MetadataSnapshot& other);

  /// Build from in-memory records (server side). `files` keep their
  /// index_in_chunk; chunk list must be in write (ID) order.
  static MetadataSnapshot Create(std::string dataset, uint64_t update_ts_ns,
                                 std::vector<ChunkId> chunks,
                                 std::vector<FileMeta> files);

  Bytes Serialize() const;
  static Result<MetadataSnapshot> Deserialize(BytesView data);

  const std::string& dataset() const { return dataset_; }
  uint64_t update_ts_ns() const { return update_ts_ns_; }
  const std::vector<ChunkId>& chunks() const { return chunks_; }
  size_t num_files() const { return files_.size(); }
  const std::vector<FileMeta>& files() const { return files_; }

  /// True when this snapshot matches the dataset's current KV record;
  /// a stale snapshot must be re-downloaded (§4.1.3).
  bool IsUpToDate(const DatasetMeta& current) const {
    return update_ts_ns_ == current.update_ts_ns;
  }

  // The lookups below allocate nothing; returned views live as long as
  // the snapshot.

  /// O(1) point lookup by full path; nullptr when absent.
  const FileMeta* Lookup(std::string_view path) const;

  /// readdir from the reconstructed hierarchy: subdirectories, then files,
  /// each name-sorted.
  Result<std::span<const DirEntryView>> ListDir(
      std::string_view dir_path) const;
  bool HasDir(std::string_view dir_path) const;

  /// Index of a chunk ID within chunks(); SIZE_MAX if unknown.
  size_t ChunkIndex(const ChunkId& id) const;

  /// File indices (into files()) stored in the given chunk, offset order.
  std::span<const uint32_t> FilesOfChunk(size_t chunk_index) const;

 private:
  void BuildIndexes();

  std::string dataset_;
  uint64_t update_ts_ns_ = 0;
  std::vector<ChunkId> chunks_;
  std::vector<FileMeta> files_;

  // Derived (rebuilt on load, not serialized). Every string_view points
  // into a files_[i].full_name, or at a static "/".
  FlatHashMap<std::string_view, uint32_t> path_index_;
  FlatHashMap<ChunkId, uint32_t, ChunkIdHash> chunk_index_;
  // Chunk c's files are chunk_files_[chunk_begin_[c], chunk_begin_[c + 1]).
  std::vector<uint32_t> chunk_files_;
  std::vector<uint32_t> chunk_begin_;
  // Directory d (dir_index_ maps its path to d) lists
  // children_[dir_begin_[d], dir_begin_[d + 1]).
  FlatHashMap<std::string_view, uint32_t> dir_index_;
  std::vector<DirEntryView> children_;
  std::vector<uint32_t> dir_begin_;
};

}  // namespace diesel::core
