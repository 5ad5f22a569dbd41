#include "core/chunk_buffer.h"

#include "common/crc32.h"
#include "core/metadata.h"
#include "obs/metrics.h"

namespace diesel::core {
namespace {

/// Zero-copy read-path counters. `views` counts slices handed out; the crc
/// pair shows the once-per-blob memo at work (skipped = checks the memo
/// saved).
struct SliceCounters {
  obs::Counter& views = obs::Metrics().GetCounter("cache.slice.views");
  obs::Counter& crc_verified =
      obs::Metrics().GetCounter("cache.slice.crc_verified");
  obs::Counter& crc_skipped =
      obs::Metrics().GetCounter("cache.slice.crc_skipped");
};

SliceCounters& Counters() {
  static SliceCounters c;
  return c;
}

}  // namespace

Result<FileSlice> ChunkBuffer::Slice(const FileMeta& meta) const {
  // Subtractions only: a decoded offset near UINT64_MAX must not wrap.
  const uint64_t blob_size = size();
  if (meta.offset > blob_size || meta.length > blob_size - meta.offset)
    return Status::Corruption("file range past chunk end: " + meta.full_name);
  FileSlice slice = FileSlice::FromBuffer(*this, meta.offset, meta.length);
  // End-to-end integrity: the chunk builder stamped each file's CRC32C into
  // the metadata, and a blob that no longer matches is not served. The blob
  // is immutable, so each file is scanned at most once per blob, whoever
  // holds it — later reads hit the shared memo.
  if (meta.crc != 0) {
    if (Verified(meta.index_in_chunk)) {
      Counters().crc_skipped.Inc();
    } else {
      if (Crc32c(slice.view()) != meta.crc)
        return Status::Corruption("file checksum mismatch: " + meta.full_name);
      MarkVerified(meta.index_in_chunk);
      Counters().crc_verified.Inc();
    }
  }
  Counters().views.Inc();
  return slice;
}

}  // namespace diesel::core
