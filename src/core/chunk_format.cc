#include "core/chunk_format.h"

#include <algorithm>
#include <utility>

#include "common/crc32.h"

namespace diesel::core {

uint64_t ChunkBuilder::Add(std::string name, BytesView content) {
  uint64_t offset = payload_.size();
  // Reserve twice the target the first time capacity runs out; Finish keeps
  // the buffer. A chunk closes on the first file that reaches the target, so
  // every file up to the target size then fits without moving the
  // accumulated payload; only a larger file falls back to doubling.
  size_t needed = payload_.size() + content.size();
  if (payload_.capacity() < needed) {
    payload_.reserve(std::max({needed, 2 * static_cast<size_t>(target_),
                               payload_.capacity() * 2}));
  }
  name_bytes_ += name.size();
  entries_.push_back({std::move(name), offset, content.size(),
                      Crc32c(content)});
  payload_.insert(payload_.end(), content.begin(), content.end());
  return offset;
}

uint64_t ChunkBuilder::SerializedHeaderBytes() const {
  // magic + version + header_len (12) | chunk id (16) | create_ts (8) |
  // num_files + num_deleted (8) | bitmap | per entry: u32 name length +
  // name + offset/length/crc (20) | header crc (4).
  return 48 + (entries_.size() + 7) / 8 + name_bytes_ + 24 * entries_.size();
}

Bytes ChunkBuilder::Finish(const ChunkId& id, uint64_t create_ts_ns) {
  // Exact header size from the running totals: one allocation, no growth.
  BinaryWriter w(SerializedHeaderBytes());
  w.PutU32(kChunkMagic);
  w.PutU32(kChunkVersion);
  size_t header_len_pos = w.size();
  w.PutU32(0);  // header_len, patched below
  w.PutRaw(id.bytes().data(), ChunkId::kSize);
  w.PutU64(create_ts_ns);
  w.PutU32(static_cast<uint32_t>(entries_.size()));
  w.PutU32(0);  // num_deleted: fresh chunks have no deletions
  size_t bitmap_bytes = (entries_.size() + 7) / 8;
  for (size_t i = 0; i < bitmap_bytes; ++i) w.PutU8(0);
  for (const ChunkFileEntry& e : entries_) {
    w.PutString(e.name);
    w.PutU64(e.offset);
    w.PutU64(e.length);
    w.PutU32(e.crc);
  }
  // Header CRC covers everything before it.
  uint32_t crc = Crc32c({w.data().data(), w.size()});
  w.PutU32(crc);
  uint32_t header_len = static_cast<uint32_t>(w.size());
  w.PatchU32(header_len_pos, header_len);
  // Note: header_crc was computed before header_len was patched; the parser
  // re-zeroes the field identically, so verification stays consistent.
  // The chunk is allocated at its exact size, so a blob shared into the
  // object store pins no slack, and the payload buffer keeps its capacity
  // for the next chunk instead of being reallocated.
  Bytes chunk;
  chunk.reserve(w.size() + payload_.size());
  chunk.insert(chunk.end(), w.data().begin(), w.data().end());
  chunk.insert(chunk.end(), payload_.begin(), payload_.end());

  payload_.clear();
  entries_.clear();
  name_bytes_ = 0;
  return chunk;
}

namespace {

// The header CRC is computed with the header_len field zeroed (the builder
// patches it afterwards); mirror that when verifying.
uint32_t HeaderCrcOf(BytesView header_sans_crc) {
  constexpr size_t kHeaderLenOffset = 8;
  uint32_t crc = Crc32c(header_sans_crc.subspan(0, kHeaderLenOffset));
  const uint8_t zeros[4] = {0, 0, 0, 0};
  crc = Crc32c({zeros, 4}, crc);
  crc = Crc32c(header_sans_crc.subspan(kHeaderLenOffset + 4), crc);
  return crc;
}

}  // namespace

Result<ChunkView> ChunkView::ParseInternal(BytesView data,
                                           bool require_payload) {
  BinaryReader r(data);
  DIESEL_ASSIGN_OR_RETURN(uint32_t magic, r.ReadU32());
  if (magic != kChunkMagic) return Status::Corruption("chunk: bad magic");
  DIESEL_ASSIGN_OR_RETURN(uint32_t version, r.ReadU32());
  if (version != kChunkVersion)
    return Status::Corruption("chunk: unsupported version");
  DIESEL_ASSIGN_OR_RETURN(uint32_t header_len, r.ReadU32());
  if (header_len < 12 || header_len > data.size())
    return Status::Corruption("chunk: header length out of bounds");

  ChunkView view;
  view.chunk_ = data;
  view.has_payload_ = require_payload;
  view.header_len_ = header_len;

  DIESEL_ASSIGN_OR_RETURN(BytesView id_bytes, r.ReadRaw(ChunkId::kSize));
  std::copy(id_bytes.begin(), id_bytes.end(),
            view.id_.mutable_bytes().begin());
  DIESEL_ASSIGN_OR_RETURN(view.create_ts_ns_, r.ReadU64());
  DIESEL_ASSIGN_OR_RETURN(uint32_t num_files, r.ReadU32());
  DIESEL_ASSIGN_OR_RETURN(view.num_deleted_, r.ReadU32());
  size_t bitmap_bytes = (static_cast<size_t>(num_files) + 7) / 8;
  DIESEL_ASSIGN_OR_RETURN(BytesView bitmap, r.ReadRaw(bitmap_bytes));
  view.bitmap_.assign(bitmap.begin(), bitmap.end());

  // Each entry takes at least a name length, offset, length and crc, and
  // the header CRC follows them: bound the count before reserving for it.
  if (r.pos() + 4 > header_len ||
      num_files > (header_len - 4 - r.pos()) / kMinChunkEntryBytes)
    return Status::Corruption("chunk: file count exceeds header");
  view.entries_.reserve(num_files);
  for (uint32_t i = 0; i < num_files; ++i) {
    ChunkFileEntry e;
    DIESEL_ASSIGN_OR_RETURN(e.name, r.ReadString());
    DIESEL_ASSIGN_OR_RETURN(e.offset, r.ReadU64());
    DIESEL_ASSIGN_OR_RETURN(e.length, r.ReadU64());
    DIESEL_ASSIGN_OR_RETURN(e.crc, r.ReadU32());
    view.entries_.push_back(std::move(e));
  }
  DIESEL_ASSIGN_OR_RETURN(uint32_t stored_crc, r.ReadU32());
  if (r.pos() != header_len)
    return Status::Corruption("chunk: header length mismatch");
  uint32_t computed = HeaderCrcOf(data.subspan(0, header_len - 4));
  if (computed != stored_crc)
    return Status::Corruption("chunk: header checksum mismatch");

  if (require_payload) {
    uint64_t payload_size = data.size() - header_len;
    for (const auto& e : view.entries_) {
      if (e.offset > payload_size || e.length > payload_size - e.offset)
        return Status::Corruption("chunk: file range past payload end");
    }
  }
  return view;
}

Result<ChunkView> ChunkView::Parse(BytesView chunk) {
  return ParseInternal(chunk, /*require_payload=*/true);
}

Result<ChunkView> ChunkView::ParseHeaderOnly(BytesView header_prefix) {
  return ParseInternal(header_prefix, /*require_payload=*/false);
}

Result<uint32_t> ChunkView::PeekHeaderLen(BytesView first12) {
  BinaryReader r(first12);
  DIESEL_ASSIGN_OR_RETURN(uint32_t magic, r.ReadU32());
  if (magic != kChunkMagic) return Status::Corruption("chunk: bad magic");
  DIESEL_ASSIGN_OR_RETURN(uint32_t version, r.ReadU32());
  if (version != kChunkVersion)
    return Status::Corruption("chunk: unsupported version");
  return r.ReadU32();
}

bool ChunkView::IsDeleted(size_t file_index) const {
  if (file_index >= entries_.size()) return false;
  return (bitmap_[file_index / 8] >> (file_index % 8)) & 1;
}

Result<Bytes> ChunkView::ExtractFile(size_t index) const {
  if (!has_payload_)
    return Status::FailedPrecondition("chunk: header-only view has no payload");
  if (index >= entries_.size())
    return Status::OutOfRange("chunk: file index out of range");
  const ChunkFileEntry& e = entries_[index];
  BytesView payload = chunk_.subspan(header_len_);
  BytesView content = payload.subspan(e.offset, e.length);
  if (Crc32c(content) != e.crc)
    return Status::Corruption("chunk: file content checksum mismatch: " +
                              e.name);
  return Bytes(content.begin(), content.end());
}

Result<Bytes> CompactChunk(BytesView chunk, const std::vector<uint8_t>& bitmap,
                           const ChunkId& new_id, uint64_t create_ts_ns) {
  DIESEL_ASSIGN_OR_RETURN(ChunkView view, ChunkView::Parse(chunk));
  if (bitmap.size() < (view.entries().size() + 7) / 8)
    return Status::InvalidArgument("compact: bitmap too small");
  ChunkBuilder builder(/*target=*/0);
  for (size_t i = 0; i < view.entries().size(); ++i) {
    bool deleted = (bitmap[i / 8] >> (i % 8)) & 1;
    if (deleted) continue;
    DIESEL_ASSIGN_OR_RETURN(Bytes content, view.ExtractFile(i));
    builder.Add(view.entries()[i].name, content);
  }
  return builder.Finish(new_id, create_ts_ns);
}

}  // namespace diesel::core
