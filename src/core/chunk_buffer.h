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
// Virtual-time neutrality: slicing is a host-side memory operation; the
// simulated cost of a read (NIC/membus/device serves) is charged by the
// cache/fabric exactly as before, so switching callers from Bytes to
// FileSlice changes no simulated timing.
#pragma once

#include <cstdint>
#include <memory>
#include <utility>

#include "common/bytes.h"
#include "common/status.h"

namespace diesel::core {

/// One parsed chunk blob (header + payload) behind shared ownership.
/// Copying a ChunkBuffer bumps a refcount; the bytes are immutable for the
/// buffer's whole life.
class ChunkBuffer {
 public:
  ChunkBuffer() = default;

  /// Share a fetched blob (normally the object store's own buffer). File
  /// records address the blob header included, so slices need nothing else.
  static ChunkBuffer Wrap(SharedBytes blob) {
    ChunkBuffer b;
    b.blob_ = std::move(blob);
    return b;
  }

  bool valid() const { return blob_ != nullptr; }
  explicit operator bool() const { return valid(); }

  const Bytes& blob() const { return *blob_; }
  const SharedBytes& shared_blob() const { return blob_; }
  uint64_t size() const { return blob_ ? blob_->size() : 0; }

  void reset() { blob_.reset(); }

 private:
  SharedBytes blob_;
};

/// Zero-copy view of one file's content inside a shared blob. The slice
/// keeps the underlying blob alive, so it stays valid after the cache entry
/// it came from is evicted or migrated away.
class FileSlice {
 public:
  FileSlice() = default;

  /// View [begin, begin + length) of `buf`'s blob. Caller has bounds-checked.
  static FileSlice FromBuffer(const ChunkBuffer& buf, uint64_t begin,
                              uint64_t length) {
    FileSlice s;
    s.owner_ = buf.shared_blob();
    s.offset_ = begin;
    s.length_ = length;
    return s;
  }

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

  /// Materialize an owned copy (compatibility with Bytes-returning APIs).
  Bytes ToBytes() const {
    return owner_ ? Bytes(owner_->begin() + static_cast<ptrdiff_t>(offset_),
                          owner_->begin() +
                              static_cast<ptrdiff_t>(offset_ + length_))
                  : Bytes();
  }

  const SharedBytes& shared_owner() const { return owner_; }

 private:
  SharedBytes owner_;
  uint64_t offset_ = 0;
  uint64_t length_ = 0;
};

}  // namespace diesel::core
