// Shared, immutable chunk blobs and zero-copy file slices (hot read path).
//
// The task-grained cache used to hand every read a freshly copied Bytes cut
// out of the cached chunk. On the hot path (cache hit, CRC already checked)
// that memcpy dominates wall-clock cost. ChunkBuffer holds the chunk blob as
// SharedBytes — the very buffer the object store returned, so a cache fill
// copies nothing either; FileSlice is a view into that blob which holds a
// reference, so an evicted or migrated chunk's bytes stay alive for exactly
// as long as any outstanding slice needs them — no copy, no use-after-free.
//
// The buffer's shared state also holds the blob's per-file CRC memo, so
// every holder of the blob — cache partition, shared tier, each adopting
// task, the shuffle window — sees one set of bits. A corrupted copy is a new
// blob, empty memo. ChunkBuffer::Slice is the only way to cut a file out of
// a blob: both in-memory read paths (task cache, shuffle window) call it, so
// both check bounds and CRC the same way.
//
// Virtual-time neutrality: slicing and its CRC check are host-side memory
// operations; the simulated cost of a read (NIC/membus/device serves) is
// charged by the cache/fabric/window, so slicing changes no simulated
// timing.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <utility>

#include "common/bytes.h"
#include "common/status.h"
#include "core/chunk_format.h"

namespace diesel::core {

struct FileMeta;
class FileSlice;

/// One chunk blob (header + payload) behind shared ownership, with its
/// per-file CRC memo. Copying a ChunkBuffer bumps a refcount and shares the
/// memo; the bytes are immutable for the buffer's whole life.
class ChunkBuffer {
 public:
  ChunkBuffer() = default;

  /// Share a fetched blob (normally the object store's own buffer). File
  /// records address the blob header included, so slices need nothing else.
  /// Starts an empty memo of one bit per file the header lists, clamped to
  /// what the blob can hold; an unreadable header gets no bits.
  static ChunkBuffer Wrap(SharedBytes blob) {
    const uint8_t* p = blob->data();
    size_t files = 0;
    if (blob->size() >= kChunkNumFilesOffset + 4 &&
        LoadLE<uint32_t>(p) == kChunkMagic) {
      files = std::min<size_t>(LoadLE<uint32_t>(p + kChunkNumFilesOffset),
                               blob->size() / kMinChunkEntryBytes);
    }
    ChunkBuffer out;
    out.state_ = std::make_shared<State>(
        std::move(blob), files,
        std::make_unique<std::atomic<uint64_t>[]>((files + 63) / 64));
    return out;
  }

  bool valid() const { return state_ != nullptr; }
  explicit operator bool() const { return valid(); }

  const SharedBytes& shared_blob() const {
    static const SharedBytes kNone;
    return state_ ? state_->blob : kNone;
  }
  uint64_t size() const { return state_ ? state_->blob->size() : 0; }

  /// Cut `meta`'s file out of the blob (FileMeta::offset addresses the blob,
  /// header included) as a zero-copy slice. Corruption when the range runs
  /// past the blob, or when the content no longer matches `meta.crc`. The
  /// CRC is checked once per blob, memoized under FileMeta::index_in_chunk;
  /// a meta with crc 0 (hand-built in tests) skips the check.
  Result<FileSlice> Slice(const FileMeta& meta) const;

  /// Whether file `i`'s CRC has matched these bytes. An index outside the
  /// memo is never remembered, so its file is checked on every read.
  bool Verified(size_t i) const {
    return i < state_->files && (Word(i).load() & Bit(i)) != 0;
  }
  /// Remember that file `i`'s CRC matched; call only after a match.
  void MarkVerified(size_t i) const {
    if (i < state_->files) Word(i).fetch_or(Bit(i));
  }
  bool AnyVerified() const {
    for (size_t i = 0; i < state_->files; i += 64) {
      if (Word(i).load() != 0) return true;
    }
    return false;
  }
  /// Fold `other`'s memo into this one. Both wrap the same blob: two
  /// fetches of one stored chunk share its bytes but not a memo.
  void MergeVerified(const ChunkBuffer& other) const {
    for (size_t i = 0; i < state_->files; i += 64) {
      Word(i).fetch_or(other.Word(i).load());
    }
  }

 private:
  struct State {
    SharedBytes blob;
    size_t files = 0;
    std::unique_ptr<std::atomic<uint64_t>[]> bits;
  };

  static uint64_t Bit(size_t i) { return uint64_t{1} << (i % 64); }
  std::atomic<uint64_t>& Word(size_t i) const { return state_->bits[i / 64]; }

  std::shared_ptr<State> state_;
};

/// Zero-copy view of one file's content inside a shared blob. The slice
/// keeps the underlying blob alive, so it stays valid after the cache entry
/// it came from is evicted or migrated away.
class FileSlice {
 public:
  FileSlice() = default;

  /// Adopt an owned buffer whole (degraded reads and server paths that
  /// already materialized the content return these).
  static FileSlice Own(Bytes content) {
    FileSlice s;
    s.length_ = content.size();
    s.owner_ = ShareBytes(std::move(content));
    return s;
  }

  bool valid() const { return owner_ != nullptr; }
  explicit operator bool() const { return valid(); }

  size_t size() const { return length_; }
  bool empty() const { return length_ == 0; }
  const uint8_t* data() const {
    return owner_ ? owner_->data() + offset_ : nullptr;
  }

  BytesView view() const {
    return owner_ ? BytesView(owner_->data() + offset_, length_) : BytesView();
  }

  /// Materialize an owned copy, for callers that must hand out a Bytes.
  Bytes ToBytes() const {
    return owner_ ? Bytes(owner_->begin() + static_cast<ptrdiff_t>(offset_),
                          owner_->begin() +
                              static_cast<ptrdiff_t>(offset_ + length_))
                  : Bytes();
  }

  const SharedBytes& shared_owner() const { return owner_; }

 private:
  friend class ChunkBuffer;

  /// View [begin, begin + length) of `buf`'s blob; ChunkBuffer::Slice has
  /// bounds-checked it.
  static FileSlice FromBuffer(const ChunkBuffer& buf, uint64_t begin,
                              uint64_t length) {
    FileSlice s;
    s.owner_ = buf.shared_blob();
    s.offset_ = begin;
    s.length_ = length;
    return s;
  }

  SharedBytes owner_;
  uint64_t offset_ = 0;
  uint64_t length_ = 0;
};

}  // namespace diesel::core
