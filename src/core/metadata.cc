#include "core/metadata.h"

#include <algorithm>
#include <set>

#include "common/hash.h"

namespace diesel::core {

// ---- codecs ----------------------------------------------------------------

Bytes FileMeta::Serialize() const {
  BinaryWriter w(48 + full_name.size());
  w.PutRaw(chunk.bytes().data(), ChunkId::kSize);
  w.PutU64(offset);
  w.PutU64(length);
  w.PutU32(crc);
  w.PutU32(index_in_chunk);
  w.PutString(full_name);
  return std::move(w).Take();
}

Result<FileMeta> FileMeta::Deserialize(BytesView data) {
  BinaryReader r(data);
  FileMeta m;
  DIESEL_ASSIGN_OR_RETURN(BytesView idb, r.ReadRaw(ChunkId::kSize));
  std::copy(idb.begin(), idb.end(), m.chunk.mutable_bytes().begin());
  DIESEL_ASSIGN_OR_RETURN(m.offset, r.ReadU64());
  DIESEL_ASSIGN_OR_RETURN(m.length, r.ReadU64());
  DIESEL_ASSIGN_OR_RETURN(m.crc, r.ReadU32());
  DIESEL_ASSIGN_OR_RETURN(m.index_in_chunk, r.ReadU32());
  DIESEL_ASSIGN_OR_RETURN(m.full_name, r.ReadString());
  return m;
}

Bytes ChunkMeta::Serialize() const {
  BinaryWriter w(32 + deletion_bitmap.size());
  w.PutU64(update_ts_ns);
  w.PutU64(size);
  w.PutU32(header_len);
  w.PutU32(num_files);
  w.PutU32(num_deleted);
  w.PutBytes(deletion_bitmap);
  return std::move(w).Take();
}

Result<ChunkMeta> ChunkMeta::Deserialize(BytesView data) {
  BinaryReader r(data);
  ChunkMeta m;
  DIESEL_ASSIGN_OR_RETURN(m.update_ts_ns, r.ReadU64());
  DIESEL_ASSIGN_OR_RETURN(m.size, r.ReadU64());
  DIESEL_ASSIGN_OR_RETURN(m.header_len, r.ReadU32());
  DIESEL_ASSIGN_OR_RETURN(m.num_files, r.ReadU32());
  DIESEL_ASSIGN_OR_RETURN(m.num_deleted, r.ReadU32());
  DIESEL_ASSIGN_OR_RETURN(BytesView bm, r.ReadBytes());
  m.deletion_bitmap.assign(bm.begin(), bm.end());
  return m;
}

Bytes DatasetMeta::Serialize() const {
  BinaryWriter w(32);
  w.PutU64(update_ts_ns);
  w.PutU64(num_chunks);
  w.PutU64(num_files);
  w.PutU64(total_bytes);
  return std::move(w).Take();
}

Result<DatasetMeta> DatasetMeta::Deserialize(BytesView data) {
  BinaryReader r(data);
  DatasetMeta m;
  DIESEL_ASSIGN_OR_RETURN(m.update_ts_ns, r.ReadU64());
  DIESEL_ASSIGN_OR_RETURN(m.num_chunks, r.ReadU64());
  DIESEL_ASSIGN_OR_RETURN(m.num_files, r.ReadU64());
  DIESEL_ASSIGN_OR_RETURN(m.total_bytes, r.ReadU64());
  return m;
}

// ---- path helpers ----------------------------------------------------------

namespace {

// View forms of ParentPath/BaseName: substrings of `path` (or "/").
std::string_view ParentView(std::string_view path) {
  size_t pos = path.find_last_of('/');
  if (pos == std::string_view::npos || pos == 0) return "/";
  return path.substr(0, pos);
}

std::string_view BaseView(std::string_view path) {
  size_t pos = path.find_last_of('/');
  return pos == std::string_view::npos ? path : path.substr(pos + 1);
}

}  // namespace

std::string ParentPath(std::string_view path) {
  return std::string(ParentView(path));
}

std::string BaseName(std::string_view path) {
  return std::string(BaseView(path));
}

// ---- keys -------------------------------------------------------------------

namespace {

/// "F/<dataset>/<hex(hash(dir))>/<kind>/<name>", built in one allocation;
/// the hash is 16 zero-padded lowercase hex digits.
std::string DirEntryKey(std::string_view dataset, std::string_view dir,
                        char kind, std::string_view name) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string key;
  key.reserve(2 + dataset.size() + 1 + 16 + 3 + name.size());
  key.append("F/").append(dataset).push_back('/');
  uint64_t h = PathHash(dir);
  for (int shift = 60; shift >= 0; shift -= 4) {
    key.push_back(kHex[(h >> shift) & 0xf]);
  }
  key.push_back('/');
  key.push_back(kind);
  key.push_back('/');
  key.append(name);
  return key;
}

}  // namespace

std::string DatasetKey(std::string_view dataset) {
  return "D/" + std::string(dataset);
}

std::string ChunkKey(std::string_view dataset, const ChunkId& id) {
  return ChunkKeyPrefix(dataset) + id.Encoded();
}

std::string ChunkKeyPrefix(std::string_view dataset) {
  return "C/" + std::string(dataset) + "/";
}

std::string FileKey(std::string_view dataset, std::string_view full_path) {
  return DirEntryKey(dataset, ParentView(full_path), 'f', BaseView(full_path));
}

std::string DirMarkerKey(std::string_view dataset, std::string_view dir_path) {
  return DirEntryKey(dataset, ParentView(dir_path), 'd', BaseView(dir_path));
}

std::string DirFilePrefix(std::string_view dataset, std::string_view dir_path) {
  return DirEntryKey(dataset, dir_path, 'f', {});
}

std::string DirSubdirPrefix(std::string_view dataset,
                            std::string_view dir_path) {
  return DirEntryKey(dataset, dir_path, 'd', {});
}

// ---- MetadataService --------------------------------------------------------

Status MetadataService::AddChunk(sim::VirtualClock& clock,
                                 std::string_view dataset, const ChunkId& id,
                                 const ChunkMeta& chunk_meta,
                                 const std::vector<FileMeta>& files) {
  std::vector<std::pair<std::string, std::string>> batch;
  batch.reserve(files.size() * 2 + 1);
  batch.emplace_back(ChunkKey(dataset, id), ToString(chunk_meta.Serialize()));
  std::set<std::string_view> dirs_added;  // views into `files`' names
  for (const FileMeta& f : files) {
    batch.emplace_back(FileKey(dataset, f.full_name),
                       ToString(f.Serialize()));
    // Ancestor directory markers so readdir discovers the hierarchy.
    for (std::string_view dir = ParentView(f.full_name); dir != "/";
         dir = ParentView(dir)) {
      if (!dirs_added.insert(dir).second) break;  // ancestors already queued
      batch.emplace_back(DirMarkerKey(dataset, dir), "");
    }
  }
  return kv_.BatchPut(clock, node_, std::move(batch));
}

Result<FileMeta> MetadataService::GetFile(sim::VirtualClock& clock,
                                          std::string_view dataset,
                                          std::string_view path) {
  DIESEL_ASSIGN_OR_RETURN(std::string raw,
                          kv_.Get(clock, node_, FileKey(dataset, path)));
  return FileMeta::Deserialize(AsBytesView(raw));
}

Result<ChunkMeta> MetadataService::GetChunk(sim::VirtualClock& clock,
                                            std::string_view dataset,
                                            const ChunkId& id) {
  DIESEL_ASSIGN_OR_RETURN(std::string raw,
                          kv_.Get(clock, node_, ChunkKey(dataset, id)));
  return ChunkMeta::Deserialize(AsBytesView(raw));
}

Result<std::vector<DirEntry>> MetadataService::ListDir(
    sim::VirtualClock& clock, std::string_view dataset,
    std::string_view dir_path) {
  // pscan hash(dir)/d  union  pscan hash(dir)/f (paper §4.1.1).
  DIESEL_ASSIGN_OR_RETURN(
      std::vector<kv::ScanEntry> subdirs,
      kv_.PScan(clock, node_, DirSubdirPrefix(dataset, dir_path)));
  DIESEL_ASSIGN_OR_RETURN(
      std::vector<kv::ScanEntry> files,
      kv_.PScan(clock, node_, DirFilePrefix(dataset, dir_path)));
  std::vector<DirEntry> out;
  out.reserve(subdirs.size() + files.size());
  size_t prefix_len = DirSubdirPrefix(dataset, dir_path).size();
  for (const auto& e : subdirs) {
    out.push_back({e.key.substr(prefix_len), /*is_dir=*/true});
  }
  prefix_len = DirFilePrefix(dataset, dir_path).size();
  for (const auto& e : files) {
    out.push_back({e.key.substr(prefix_len), /*is_dir=*/false});
  }
  return out;
}

Result<std::vector<ChunkId>> MetadataService::ListChunks(
    sim::VirtualClock& clock, std::string_view dataset) {
  DIESEL_ASSIGN_OR_RETURN(std::vector<kv::ScanEntry> entries,
                          kv_.PScan(clock, node_, ChunkKeyPrefix(dataset)));
  std::vector<ChunkId> out;
  out.reserve(entries.size());
  size_t prefix_len = ChunkKeyPrefix(dataset).size();
  for (const auto& e : entries) {
    DIESEL_ASSIGN_OR_RETURN(ChunkId id,
                            ChunkId::FromEncoded(e.key.substr(prefix_len)));
    out.push_back(id);
  }
  // pscan merges shard results in key order; encoded order == write order.
  return out;
}

Result<DatasetMeta> MetadataService::GetDataset(sim::VirtualClock& clock,
                                                std::string_view dataset) {
  DIESEL_ASSIGN_OR_RETURN(std::string raw,
                          kv_.Get(clock, node_, DatasetKey(dataset)));
  return DatasetMeta::Deserialize(AsBytesView(raw));
}

Status MetadataService::PutDataset(sim::VirtualClock& clock,
                                   std::string_view dataset,
                                   const DatasetMeta& meta) {
  return kv_.Put(clock, node_, DatasetKey(dataset),
                 ToString(meta.Serialize()));
}

Status MetadataService::DeleteFile(sim::VirtualClock& clock,
                                   std::string_view dataset,
                                   std::string_view path) {
  DIESEL_ASSIGN_OR_RETURN(FileMeta fm, GetFile(clock, dataset, path));
  DIESEL_ASSIGN_OR_RETURN(ChunkMeta cm, GetChunk(clock, dataset, fm.chunk));
  size_t byte_index = fm.index_in_chunk / 8;
  if (byte_index >= cm.deletion_bitmap.size())
    return Status::Corruption("deletion bitmap shorter than file index");
  uint8_t mask = static_cast<uint8_t>(1u << (fm.index_in_chunk % 8));
  if (cm.deletion_bitmap[byte_index] & mask)
    return Status::NotFound("file already deleted: " + std::string(path));
  cm.deletion_bitmap[byte_index] |= mask;
  cm.num_deleted += 1;
  cm.update_ts_ns = clock.now();
  DIESEL_RETURN_IF_ERROR(kv_.Put(clock, node_, ChunkKey(dataset, fm.chunk),
                                 ToString(cm.Serialize())));
  return kv_.Delete(clock, node_, FileKey(dataset, path));
}

Result<std::vector<ChunkId>> MetadataService::DeleteDataset(
    sim::VirtualClock& clock, std::string_view dataset) {
  DIESEL_ASSIGN_OR_RETURN(std::vector<ChunkId> chunks,
                          ListChunks(clock, dataset));
  for (const ChunkId& id : chunks) {
    DIESEL_RETURN_IF_ERROR(kv_.Delete(clock, node_, ChunkKey(dataset, id)));
  }
  // File and directory keys: scan the dataset's file namespace.
  DIESEL_ASSIGN_OR_RETURN(
      std::vector<kv::ScanEntry> file_keys,
      kv_.PScan(clock, node_, "F/" + std::string(dataset) + "/"));
  for (const auto& e : file_keys) {
    DIESEL_RETURN_IF_ERROR(kv_.Delete(clock, node_, e.key));
  }
  (void)kv_.Delete(clock, node_, DatasetKey(dataset));
  return chunks;
}

}  // namespace diesel::core
