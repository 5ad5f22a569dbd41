// Self-contained data chunk format (paper Fig. 5a).
//
// Small files are packed into chunks of >= 4 MB whose header embeds all the
// metadata needed to rebuild the key-value records: the DIESEL server — or a
// recovery scan — can reconstruct every file entry from the chunk alone.
//
// Layout (little-endian):
//   magic "DSL1" u32 | format version u32 | header_len u32 |
//   chunk_id (16B)   | create_ts_ns u64   | num_files u32  |
//   num_deleted u32  | deletion bitmap (ceil(num_files/8) bytes) |
//   file table: num_files x { name str | offset u64 | length u64 | crc u32 } |
//   header_crc u32   | payload bytes
//
// File offsets are relative to the payload start (== header_len).
#pragma once

#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/status.h"
#include "core/chunk_id.h"

namespace diesel::core {

constexpr uint32_t kChunkMagic = 0x314C5344;  // "DSL1"
constexpr uint32_t kChunkVersion = 1;
constexpr uint64_t kDefaultChunkTarget = 4 * 1024 * 1024;  // >= 4MB (paper)
/// Header offset of the u32 file count, and the fewest header bytes one
/// file entry takes (name length, offset, length, crc).
constexpr size_t kChunkNumFilesOffset = 36;
constexpr size_t kMinChunkEntryBytes = 4 + 8 + 8 + 4;

/// One file's entry in a chunk header.
struct ChunkFileEntry {
  std::string name;    // full path within the dataset, e.g. "/train/cls0/x.jpg"
  uint64_t offset = 0; // payload-relative
  uint64_t length = 0;
  uint32_t crc = 0;    // CRC32C of the file content
};

/// Accumulates files and serializes a finished chunk.
class ChunkBuilder {
 public:
  explicit ChunkBuilder(uint64_t target_payload_bytes = kDefaultChunkTarget)
      : target_(target_payload_bytes) {}

  /// Append a file. Returns its payload offset.
  uint64_t Add(std::string name, BytesView content);

  /// True once the payload has reached the target size.
  bool Full() const { return payload_.size() >= target_; }
  bool Empty() const { return entries_.empty(); }
  size_t num_files() const { return entries_.size(); }
  uint64_t payload_bytes() const { return payload_.size(); }

  /// Serialize into a self-contained chunk and reset the builder. The chunk
  /// is allocated at its exact size; the builder keeps its payload buffer.
  Bytes Finish(const ChunkId& id, uint64_t create_ts_ns);

  /// Exact serialized header size for the current entries (running totals;
  /// lets Finish size its header buffer in one allocation).
  uint64_t SerializedHeaderBytes() const;

 private:
  uint64_t target_;
  std::vector<ChunkFileEntry> entries_;
  Bytes payload_;
  uint64_t name_bytes_ = 0;  // running total of entry name lengths
};

/// Parsed, validated view over a serialized chunk. Owns nothing; the caller
/// keeps the chunk bytes alive.
class ChunkView {
 public:
  /// Parse and verify the header (magic, version, bounds, header CRC).
  static Result<ChunkView> Parse(BytesView chunk);

  /// Parse only the header given a prefix of the chunk (metadata recovery
  /// reads headers without fetching payloads). The prefix must contain the
  /// full header; use PeekHeaderLen() to size the read.
  static Result<ChunkView> ParseHeaderOnly(BytesView header_prefix);

  /// Header length from the first 12 bytes (magic | version | header_len).
  static Result<uint32_t> PeekHeaderLen(BytesView first12);

  const ChunkId& id() const { return id_; }
  uint64_t create_ts_ns() const { return create_ts_ns_; }
  uint32_t header_len() const { return header_len_; }
  const std::vector<ChunkFileEntry>& entries() const { return entries_; }
  uint32_t num_deleted() const { return num_deleted_; }
  const std::vector<uint8_t>& deletion_bitmap() const { return bitmap_; }
  bool IsDeleted(size_t file_index) const;

  /// Extract one file's content by table index, verifying its CRC.
  /// Fails FailedPrecondition when constructed header-only.
  Result<Bytes> ExtractFile(size_t index) const;

  /// Total serialized size (header + payload) when payload present.
  uint64_t chunk_bytes() const { return chunk_.size(); }

 private:
  static Result<ChunkView> ParseInternal(BytesView data, bool require_payload);

  BytesView chunk_;     // full chunk, or header-only prefix
  bool has_payload_ = false;
  ChunkId id_;
  uint64_t create_ts_ns_ = 0;
  uint32_t header_len_ = 0;
  uint32_t num_deleted_ = 0;
  std::vector<uint8_t> bitmap_;
  std::vector<ChunkFileEntry> entries_;
};

/// Rewrite a chunk dropping the files marked deleted in `bitmap` (house-
/// keeping/purge, §4.1.1). Entries and payload are compacted; the new chunk
/// reuses `new_id` and `create_ts_ns`.
Result<Bytes> CompactChunk(BytesView chunk, const std::vector<uint8_t>& bitmap,
                           const ChunkId& new_id, uint64_t create_ts_ns);

}  // namespace diesel::core
