#include "core/metadata.h"

#include <algorithm>
#include <cstring>
#include <optional>

#include "common/flat_hash_map.h"
#include "common/hash.h"

namespace diesel::core {

// ---- codecs ----------------------------------------------------------------

namespace {

/// The file record encoding, shared by FileMeta and RegisterChunk (which
/// writes records straight from header entries).
void PutFileRecord(BinaryWriter& w, const ChunkId& chunk, uint64_t offset,
                   uint64_t length, uint32_t crc, uint32_t index_in_chunk,
                   std::string_view full_name) {
  w.PutRaw(chunk.bytes().data(), ChunkId::kSize);
  w.PutU64(offset);
  w.PutU64(length);
  w.PutU32(crc);
  w.PutU32(index_in_chunk);
  w.PutString(full_name);
}

}  // namespace

Bytes FileMeta::Serialize() const {
  BinaryWriter w(48 + full_name.size());
  PutFileRecord(w, chunk, offset, length, crc, index_in_chunk, full_name);
  return std::move(w).Take();
}

Result<FileMeta> FileMeta::Deserialize(BytesView data) {
  // One bounds check covers the fixed-width fields: this decoder runs once
  // per file in every snapshot build.
  constexpr size_t kFixedBytes = ChunkId::kSize + 8 + 8 + 4 + 4;
  BinaryReader r(data);
  DIESEL_ASSIGN_OR_RETURN(BytesView fixed, r.ReadRaw(kFixedBytes));
  DIESEL_ASSIGN_OR_RETURN(BytesView name, r.ReadBytes());
  FileMeta m;
  const uint8_t* p = fixed.data();
  std::copy_n(p, ChunkId::kSize, m.chunk.mutable_bytes().begin());
  p += ChunkId::kSize;
  m.offset = LoadLE<uint64_t>(p);
  m.length = LoadLE<uint64_t>(p + 8);
  m.crc = LoadLE<uint32_t>(p + 16);
  m.index_in_chunk = LoadLE<uint32_t>(p + 20);
  m.full_name.assign(reinterpret_cast<const char*>(name.data()), name.size());
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

std::string_view ParentPath(std::string_view path) {
  size_t pos = path.find_last_of('/');
  if (pos == std::string_view::npos || pos == 0) return "/";
  return path.substr(0, pos);
}

std::string_view BaseName(std::string_view path) {
  size_t pos = path.find_last_of('/');
  return pos == std::string_view::npos ? path : path.substr(pos + 1);
}

Status ValidateDatasetName(std::string_view dataset) {
  if (dataset.empty() || dataset.find('/') != std::string_view::npos) {
    return Status::InvalidArgument("dataset name must be non-empty and "
                                   "contain no '/': '" +
                                   std::string(dataset) + "'");
  }
  return Status::Ok();
}

// ---- keys -------------------------------------------------------------------

namespace {

constexpr size_t kDirHashDigits = 16;

/// Set `key` to "F/<dataset>/<hex(hash(dir))>/<kind>/<name>", reusing its
/// buffer; the hash is 16 zero-padded lowercase hex digits, so key order
/// within a dataset is (dir hash, kind, name).
void AssignDirEntryKey(std::string& key, std::string_view dataset,
                       std::string_view dir, char kind, std::string_view name) {
  static constexpr char kHex[] = "0123456789abcdef";
  key.clear();
  key.reserve(2 + dataset.size() + 1 + kDirHashDigits + 3 + name.size());
  key.append("F/").append(dataset).push_back('/');
  uint64_t h = PathHash(dir);
  for (int shift = 60; shift >= 0; shift -= 4) {
    key.push_back(kHex[(h >> shift) & 0xf]);
  }
  key.push_back('/');
  key.push_back(kind);
  key.push_back('/');
  key.append(name);
}

/// AssignDirEntryKey into a new string, built in one allocation.
std::string DirEntryKey(std::string_view dataset, std::string_view dir,
                        char kind, std::string_view name) {
  std::string key;
  AssignDirEntryKey(key, dataset, dir, kind, name);
  return key;
}

void AssignFileKey(std::string& key, std::string_view dataset,
                   std::string_view full_path) {
  AssignDirEntryKey(key, dataset, ParentPath(full_path), 'f',
                    BaseName(full_path));
}

void AssignDirMarkerKey(std::string& key, std::string_view dataset,
                        std::string_view dir_path) {
  AssignDirEntryKey(key, dataset, ParentPath(dir_path), 'd',
                    BaseName(dir_path));
}

/// The dir hash of a file key's remainder after "F/<dataset>/"
/// ("<hex16>/f/<name>"); nullopt unless it is a well-formed file key.
std::optional<uint64_t> FileKeyDirHash(std::string_view rest) {
  if (rest.size() < kDirHashDigits + 3 ||
      rest.substr(kDirHashDigits, 3) != "/f/") {
    return std::nullopt;
  }
  uint64_t h = 0;
  for (char c : rest.substr(0, kDirHashDigits)) {
    int digit = c >= '0' && c <= '9'   ? c - '0'
                : c >= 'a' && c <= 'f' ? c - 'a' + 10
                                       : -1;
    if (digit < 0) return std::nullopt;
    h = h << 4 | static_cast<uint64_t>(digit);
  }
  return h;
}

/// The 8 bytes at `p` as a big-endian integer, so that integer order is
/// byte-string order.
uint64_t LoadBE64(const uint8_t* p) {
  return __builtin_bswap64(LoadLE<uint64_t>(p));
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

std::string FileKeyPrefix(std::string_view dataset) {
  return "F/" + std::string(dataset) + "/";
}

std::string FileKey(std::string_view dataset, std::string_view full_path) {
  std::string key;
  AssignFileKey(key, dataset, full_path);
  return key;
}

std::string DirMarkerKey(std::string_view dataset, std::string_view dir_path) {
  std::string key;
  AssignDirMarkerKey(key, dataset, dir_path);
  return key;
}

std::string DirFilePrefix(std::string_view dataset, std::string_view dir_path) {
  return DirEntryKey(dataset, dir_path, 'f', {});
}

std::string DirSubdirPrefix(std::string_view dataset,
                            std::string_view dir_path) {
  return DirEntryKey(dataset, dir_path, 'd', {});
}

// ---- MetadataService --------------------------------------------------------

Result<size_t> MetadataService::RegisterChunk(sim::VirtualClock& clock,
                                              std::string_view dataset,
                                              const ChunkView& view,
                                              uint64_t blob_size) {
  DIESEL_RETURN_IF_ERROR(ValidateDatasetName(dataset));
  const std::vector<ChunkFileEntry>& entries = view.entries();
  ChunkMeta cm;
  cm.update_ts_ns = view.create_ts_ns();
  cm.size = blob_size;
  cm.header_len = view.header_len();
  cm.num_files = static_cast<uint32_t>(entries.size());
  cm.num_deleted = view.num_deleted();
  cm.deletion_bitmap = view.deletion_bitmap();
  // Every record goes into one batch buffer. A file's key and record each
  // take about its name plus 40 bytes, and each file adds at most one new
  // directory marker per path level (usually none or one).
  size_t bytes = 128 + dataset.size();
  size_t longest_name = 0;
  for (const ChunkFileEntry& e : entries) {
    bytes += 3 * (e.name.size() + dataset.size() + 40);
    longest_name = std::max(longest_name, e.name.size());
  }
  kv::WriteBatch batch;
  batch.Reserve(entries.size() * 2 + 1, bytes);
  batch.Put(ChunkKey(dataset, view.id()), AsStringView(cm.Serialize()));
  // Each key and file record is built in these, then copied into the batch.
  std::string key;
  BinaryWriter record(64 + longest_name);
  // Directories whose markers are queued: views into the entries' names.
  FlatHashMap<std::string_view, bool> dirs_added(entries.size());
  size_t live = 0;
  for (uint32_t i = 0; i < entries.size(); ++i) {
    if (view.IsDeleted(i)) continue;
    const ChunkFileEntry& e = entries[i];
    AssignFileKey(key, dataset, e.name);
    record.Clear();
    // The record addresses the stored object, header included, so a read
    // needs no chunk record to find the file's bytes.
    PutFileRecord(record, view.id(), cm.header_len + e.offset, e.length,
                  e.crc, i, e.name);
    batch.Put(key, AsStringView(record.data()));
    ++live;
    // Ancestor directory markers so readdir discovers the hierarchy.
    for (std::string_view dir = ParentPath(e.name); dir != "/";
         dir = ParentPath(dir)) {
      if (!dirs_added.Emplace(dir, true).second) break;  // ancestors queued
      AssignDirMarkerKey(key, dataset, dir);
      batch.Put(key, "");
    }
  }
  DIESEL_RETURN_IF_ERROR(kv_.BatchPut(clock, node_, batch));
  return live;
}

Status MetadataService::DropChunk(sim::VirtualClock& clock,
                                  std::string_view dataset, const ChunkId& id) {
  DIESEL_RETURN_IF_ERROR(ValidateDatasetName(dataset));
  return kv_.Delete(clock, node_, ChunkKey(dataset, id));
}

Result<FileMeta> MetadataService::GetFile(sim::VirtualClock& clock,
                                          std::string_view dataset,
                                          std::string_view path) {
  DIESEL_RETURN_IF_ERROR(ValidateDatasetName(dataset));
  DIESEL_ASSIGN_OR_RETURN(std::string raw,
                          kv_.Get(clock, node_, FileKey(dataset, path)));
  return FileMeta::Deserialize(AsBytesView(raw));
}

Result<std::vector<FileMeta>> MetadataService::GetFiles(
    sim::VirtualClock& clock, std::string_view dataset,
    std::span<const std::string> paths) {
  DIESEL_RETURN_IF_ERROR(ValidateDatasetName(dataset));
  std::vector<std::string> keys;
  keys.reserve(paths.size());
  for (const std::string& p : paths) keys.push_back(FileKey(dataset, p));
  DIESEL_ASSIGN_OR_RETURN(std::vector<std::optional<std::string>> raw,
                          kv_.MGet(clock, node_, keys));
  std::vector<FileMeta> metas;
  metas.reserve(paths.size());
  for (size_t i = 0; i < paths.size(); ++i) {
    if (!raw[i].has_value())
      return Status::NotFound("no such file: " + paths[i]);
    DIESEL_ASSIGN_OR_RETURN(FileMeta fm,
                            FileMeta::Deserialize(AsBytesView(*raw[i])));
    metas.push_back(std::move(fm));
  }
  return metas;
}

Result<ChunkMeta> MetadataService::GetChunk(sim::VirtualClock& clock,
                                            std::string_view dataset,
                                            const ChunkId& id) {
  DIESEL_RETURN_IF_ERROR(ValidateDatasetName(dataset));
  DIESEL_ASSIGN_OR_RETURN(std::string raw,
                          kv_.Get(clock, node_, ChunkKey(dataset, id)));
  return ChunkMeta::Deserialize(AsBytesView(raw));
}

Result<std::vector<DirEntry>> MetadataService::ListDir(
    sim::VirtualClock& clock, std::string_view dataset,
    std::string_view dir_path) {
  DIESEL_RETURN_IF_ERROR(ValidateDatasetName(dataset));
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
  DIESEL_RETURN_IF_ERROR(ValidateDatasetName(dataset));
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

Result<std::vector<FileMeta>> MetadataService::ListFiles(
    sim::VirtualClock& clock, std::string_view dataset, size_t expected) {
  DIESEL_RETURN_IF_ERROR(ValidateDatasetName(dataset));
  const std::string prefix = FileKeyPrefix(dataset);
  // Decode each shard's file records in its key order, remembering the dir
  // hash from the key, then merge the per-shard runs on (dir hash, base
  // name): that is the global key order, because the hash is fixed-width
  // hex and the key's name is the base name of the record's full_name. The
  // merge compares the base names' first 16 bytes as two big-endian words
  // (zero-padded) and reads the names only when those tie.
  struct SortKey {
    uint64_t dir_hash;
    uint64_t base_head[2];
  };
  // `expected` usually comes from the dataset record: a hint, capped so a
  // bad count cannot reserve unbounded memory.
  expected = std::min<size_t>(expected, size_t{1} << 22);
  std::vector<FileMeta> files;  // keys[i] belongs to files[i]
  std::vector<SortKey> keys;
  files.reserve(expected);
  keys.reserve(expected);
  std::vector<size_t> runs;  // files[runs[i], runs[i+1]) is one shard's run
  uint32_t run_shard = 0;
  Status decode = Status::Ok();
  DIESEL_RETURN_IF_ERROR(kv_.Scan(
      clock, node_, prefix,
      [&](uint32_t shard, std::string_view key, std::string_view value) {
        if (value.empty() || !decode.ok()) return;  // directory marker
        std::optional<uint64_t> dir_hash =
            FileKeyDirHash(key.substr(prefix.size()));
        if (!dir_hash) {
          decode = Status::Corruption("metadata: malformed file key");
          return;
        }
        Result<FileMeta> fm = FileMeta::Deserialize(AsBytesView(value));
        if (!fm.ok()) {
          decode = fm.status();
          return;
        }
        if (runs.empty() || shard != run_shard) {
          runs.push_back(files.size());
          run_shard = shard;
        }
        std::string_view base = BaseName(fm->full_name);
        uint8_t head[16] = {};
        std::memcpy(head, base.data(), std::min<size_t>(base.size(), 16));
        keys.push_back({*dir_hash, {LoadBE64(head), LoadBE64(head + 8)}});
        files.push_back(std::move(fm).value());
      }));
  DIESEL_RETURN_IF_ERROR(decode);
  runs.push_back(files.size());
  std::vector<uint32_t> order =
      kv::MergedOrder(std::move(runs), [&](uint32_t a, uint32_t b) {
        const SortKey& ka = keys[a];
        const SortKey& kb = keys[b];
        if (ka.dir_hash != kb.dir_hash) return ka.dir_hash < kb.dir_hash;
        if (ka.base_head[0] != kb.base_head[0])
          return ka.base_head[0] < kb.base_head[0];
        if (ka.base_head[1] != kb.base_head[1])
          return ka.base_head[1] < kb.base_head[1];
        return BaseName(files[a].full_name) < BaseName(files[b].full_name);
      });
  // Permute in place, cycle by cycle: position i takes files[order[i]].
  // A finished position is marked order[i] == i.
  for (uint32_t i = 0; i < order.size(); ++i) {
    if (order[i] == i) continue;
    FileMeta held = std::move(files[i]);
    uint32_t j = i;
    for (uint32_t from = order[j]; from != i; from = order[j]) {
      files[j] = std::move(files[from]);
      order[j] = j;
      j = from;
    }
    files[j] = std::move(held);
    order[j] = j;
  }
  return files;
}

Result<DatasetMeta> MetadataService::GetDataset(sim::VirtualClock& clock,
                                                std::string_view dataset) {
  DIESEL_RETURN_IF_ERROR(ValidateDatasetName(dataset));
  DIESEL_ASSIGN_OR_RETURN(std::string raw,
                          kv_.Get(clock, node_, DatasetKey(dataset)));
  return DatasetMeta::Deserialize(AsBytesView(raw));
}

Status MetadataService::PutDataset(sim::VirtualClock& clock,
                                   std::string_view dataset,
                                   const DatasetMeta& meta) {
  DIESEL_RETURN_IF_ERROR(ValidateDatasetName(dataset));
  return kv_.Put(clock, node_, DatasetKey(dataset),
                 ToString(meta.Serialize()));
}

Status MetadataService::UpdateDataset(
    sim::VirtualClock& clock, std::string_view dataset, uint64_t ts,
    const std::function<Status(DatasetMeta&)>& update) {
  std::lock_guard<std::mutex> lock(dataset_mutex_);
  Result<DatasetMeta> cur = GetDataset(clock, dataset);
  if (!cur.ok() && !cur.status().IsNotFound()) return cur.status();
  DatasetMeta dm = cur.ok() ? cur.value() : DatasetMeta{};
  if (update) DIESEL_RETURN_IF_ERROR(update(dm));
  dm.Touch(ts);
  return PutDataset(clock, dataset, dm);
}

Status MetadataService::DeleteFile(sim::VirtualClock& clock,
                                   std::string_view dataset,
                                   std::string_view path) {
  DIESEL_RETURN_IF_ERROR(ValidateDatasetName(dataset));
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
  DIESEL_RETURN_IF_ERROR(ValidateDatasetName(dataset));
  DIESEL_ASSIGN_OR_RETURN(std::vector<ChunkId> chunks,
                          ListChunks(clock, dataset));
  for (const ChunkId& id : chunks) {
    DIESEL_RETURN_IF_ERROR(DropChunk(clock, dataset, id));
  }
  // File and directory keys: scan the dataset's file namespace.
  DIESEL_ASSIGN_OR_RETURN(std::vector<kv::ScanEntry> file_keys,
                          kv_.PScan(clock, node_, FileKeyPrefix(dataset)));
  for (const auto& e : file_keys) {
    DIESEL_RETURN_IF_ERROR(kv_.Delete(clock, node_, e.key));
  }
  (void)kv_.Delete(clock, node_, DatasetKey(dataset));
  return chunks;
}

}  // namespace diesel::core
