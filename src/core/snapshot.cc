#include "core/snapshot.h"

#include <algorithm>
#include <cstdint>
#include <utility>

namespace diesel::core {
namespace {

constexpr uint32_t kSnapshotMagic = 0x50414E53;  // "SNAP"
constexpr uint32_t kSnapshotVersion = 1;
// Chunk index, offset, length, crc, index_in_chunk, name length prefix.
constexpr size_t kMinFileRecordBytes = 4 + 8 + 8 + 4 + 4 + 4;

}  // namespace

MetadataSnapshot MetadataSnapshot::Create(std::string dataset,
                                          uint64_t update_ts_ns,
                                          std::vector<ChunkId> chunks,
                                          std::vector<FileMeta> files) {
  MetadataSnapshot snap;
  snap.dataset_ = std::move(dataset);
  snap.update_ts_ns_ = update_ts_ns;
  snap.chunks_ = std::move(chunks);
  snap.files_ = std::move(files);
  snap.BuildIndexes();
  return snap;
}

MetadataSnapshot::MetadataSnapshot(const MetadataSnapshot& other)
    : dataset_(other.dataset_), update_ts_ns_(other.update_ts_ns_),
      chunks_(other.chunks_), files_(other.files_) {
  BuildIndexes();
}

MetadataSnapshot& MetadataSnapshot::operator=(const MetadataSnapshot& other) {
  if (this != &other) *this = MetadataSnapshot(other);
  return *this;
}

Bytes MetadataSnapshot::Serialize() const {
  BinaryWriter w(64 + chunks_.size() * ChunkId::kSize + files_.size() * 64);
  w.PutU32(kSnapshotMagic);
  w.PutU32(kSnapshotVersion);
  w.PutString(dataset_);
  w.PutU64(update_ts_ns_);
  w.PutU32(static_cast<uint32_t>(chunks_.size()));
  for (const ChunkId& id : chunks_) {
    w.PutRaw(id.bytes().data(), ChunkId::kSize);
  }
  w.PutU32(static_cast<uint32_t>(files_.size()));
  for (const FileMeta& f : files_) {
    // Reference chunks by index (4 bytes instead of 16) to keep snapshots
    // small — the paper stresses small snapshot size for fast download.
    size_t ci = ChunkIndex(f.chunk);
    w.PutU32(static_cast<uint32_t>(ci));
    w.PutU64(f.offset);
    w.PutU64(f.length);
    w.PutU32(f.crc);
    w.PutU32(f.index_in_chunk);
    w.PutString(f.full_name);
  }
  return std::move(w).Take();
}

Result<MetadataSnapshot> MetadataSnapshot::Deserialize(BytesView data) {
  BinaryReader r(data);
  DIESEL_ASSIGN_OR_RETURN(uint32_t magic, r.ReadU32());
  if (magic != kSnapshotMagic) return Status::Corruption("snapshot: bad magic");
  DIESEL_ASSIGN_OR_RETURN(uint32_t version, r.ReadU32());
  if (version != kSnapshotVersion)
    return Status::Corruption("snapshot: unsupported version");

  MetadataSnapshot snap;
  DIESEL_ASSIGN_OR_RETURN(snap.dataset_, r.ReadString());
  DIESEL_ASSIGN_OR_RETURN(snap.update_ts_ns_, r.ReadU64());
  // Bound each count by the bytes left before sizing anything from it.
  DIESEL_ASSIGN_OR_RETURN(uint32_t num_chunks, r.ReadU32());
  if (num_chunks > r.remaining() / ChunkId::kSize)
    return Status::Corruption("snapshot: chunk count exceeds data");
  snap.chunks_.resize(num_chunks);
  for (uint32_t i = 0; i < num_chunks; ++i) {
    DIESEL_ASSIGN_OR_RETURN(BytesView idb, r.ReadRaw(ChunkId::kSize));
    std::copy(idb.begin(), idb.end(), snap.chunks_[i].mutable_bytes().begin());
  }
  DIESEL_ASSIGN_OR_RETURN(uint32_t num_files, r.ReadU32());
  if (num_files > r.remaining() / kMinFileRecordBytes)
    return Status::Corruption("snapshot: file count exceeds data");
  snap.files_.reserve(num_files);
  for (uint32_t i = 0; i < num_files; ++i) {
    FileMeta f;
    DIESEL_ASSIGN_OR_RETURN(uint32_t ci, r.ReadU32());
    if (ci >= snap.chunks_.size())
      return Status::Corruption("snapshot: chunk index out of range");
    f.chunk = snap.chunks_[ci];
    DIESEL_ASSIGN_OR_RETURN(f.offset, r.ReadU64());
    DIESEL_ASSIGN_OR_RETURN(f.length, r.ReadU64());
    DIESEL_ASSIGN_OR_RETURN(f.crc, r.ReadU32());
    DIESEL_ASSIGN_OR_RETURN(f.index_in_chunk, r.ReadU32());
    DIESEL_ASSIGN_OR_RETURN(f.full_name, r.ReadString());
    snap.files_.push_back(std::move(f));
  }
  if (!r.AtEnd()) return Status::Corruption("snapshot: trailing bytes");
  snap.BuildIndexes();
  return snap;
}

namespace {

constexpr uint32_t kNoGroup = UINT32_MAX;

/// Group items 0..n-1 by id into CSR form: out[begin[k], begin[k + 1])
/// holds value_of(i) for each item i with id_of(i) == k, in item order.
/// Items whose id is kNoGroup are left out; other ids are below `num_ids`.
template <typename T, typename IdOf, typename ValueOf>
void GroupById(size_t n, size_t num_ids, IdOf id_of, ValueOf value_of,
               std::vector<T>& out, std::vector<uint32_t>& begin) {
  begin.assign(num_ids + 1, 0);
  for (size_t i = 0; i < n; ++i) {
    if (uint32_t k = id_of(i); k != kNoGroup) ++begin[k + 1];
  }
  for (size_t k = 0; k < num_ids; ++k) begin[k + 1] += begin[k];
  out.resize(begin[num_ids]);
  // Fill through begin[k] as a cursor, then shift the cursors (now each
  // group's end) back to the starts.
  for (size_t i = 0; i < n; ++i) {
    if (uint32_t k = id_of(i); k != kNoGroup) out[begin[k]++] = value_of(i);
  }
  for (size_t k = num_ids; k > 0; --k) begin[k] = begin[k - 1];
  begin[0] = 0;
}

}  // namespace

void MetadataSnapshot::BuildIndexes() {
  const auto num_files = static_cast<uint32_t>(files_.size());
  chunk_index_ = {};
  chunk_index_.reserve(chunks_.size());
  for (uint32_t i = 0; i < chunks_.size(); ++i) {
    chunk_index_.InsertOrAssign(chunks_[i], i);
  }

  // One pass over the files: path index, each file's chunk and parent
  // directory, and a marker for every directory under its own parent.
  path_index_ = {};
  path_index_.reserve(num_files);
  dir_index_ = {};
  std::vector<uint32_t> file_chunk(num_files);
  std::vector<uint32_t> file_dir(num_files);
  std::vector<std::pair<uint32_t, DirEntryView>> markers;  // (parent, dir)
  std::string_view last_parent;
  uint32_t last_parent_id = 0;
  for (uint32_t i = 0; i < num_files; ++i) {
    std::string_view name = files_[i].full_name;
    path_index_.InsertOrAssign(name, i);
    const size_t ci = ChunkIndex(files_[i].chunk);
    file_chunk[i] = ci == static_cast<size_t>(-1) ? kNoGroup
                                                  : static_cast<uint32_t>(ci);
    // Files of one directory tend to be adjacent (key order groups them),
    // so the last parent's id is reused.
    std::string_view dir = ParentPath(name);
    if (dir != last_parent) {
      auto [dir_id, is_new] =
          dir_index_.Emplace(dir, static_cast<uint32_t>(dir_index_.size()));
      last_parent = dir;
      last_parent_id = *dir_id;
      for (std::string_view d = dir; is_new && d != "/";) {
        std::string_view up = ParentPath(d);
        auto [up_id, up_new] =
            dir_index_.Emplace(up, static_cast<uint32_t>(dir_index_.size()));
        markers.push_back({*up_id, {BaseName(d), true}});
        d = up;
        is_new = up_new;
      }
    }
    file_dir[i] = last_parent_id;
  }

  // Files within a chunk in offset order (chunk-group shuffle depends on it).
  GroupById(
      num_files, chunks_.size(), [&](size_t i) { return file_chunk[i]; },
      [](size_t i) { return static_cast<uint32_t>(i); }, chunk_files_,
      chunk_begin_);
  for (size_t c = 0; c < chunks_.size(); ++c) {
    std::sort(chunk_files_.begin() + chunk_begin_[c],
              chunk_files_.begin() + chunk_begin_[c + 1],
              [this](uint32_t a, uint32_t b) {
                return files_[a].offset < files_[b].offset;
              });
  }
  // Deterministic listing order: directories first, then files, each sorted.
  // Markers go in first, and key order already sorts each directory's
  // files, so most listings need no sort.
  const size_t num_markers = markers.size();
  GroupById(
      num_markers + num_files, dir_index_.size(),
      [&](size_t i) {
        return i < num_markers ? markers[i].first : file_dir[i - num_markers];
      },
      [&](size_t i) {
        return i < num_markers
                   ? markers[i].second
                   : DirEntryView{BaseName(files_[i - num_markers].full_name),
                                  false};
      },
      children_, dir_begin_);
  auto listing_order = [](const DirEntryView& a, const DirEntryView& b) {
    if (a.is_dir != b.is_dir) return a.is_dir;
    return a.name < b.name;
  };
  for (size_t d = 0; d < dir_index_.size(); ++d) {
    auto first = children_.begin() + dir_begin_[d];
    auto last = children_.begin() + dir_begin_[d + 1];
    if (!std::is_sorted(first, last, listing_order)) {
      std::sort(first, last, listing_order);
    }
  }
}

const FileMeta* MetadataSnapshot::Lookup(std::string_view path) const {
  const uint32_t* idx = path_index_.Find(path);
  return idx ? &files_[*idx] : nullptr;
}

Result<std::span<const DirEntryView>> MetadataSnapshot::ListDir(
    std::string_view dir_path) const {
  const uint32_t* d = dir_index_.Find(dir_path);
  if (d == nullptr) {
    if (dir_path == "/") return std::span<const DirEntryView>{};
    return Status::NotFound("no such directory: " + std::string(dir_path));
  }
  return std::span<const DirEntryView>(children_).subspan(
      dir_begin_[*d], dir_begin_[*d + 1] - dir_begin_[*d]);
}

bool MetadataSnapshot::HasDir(std::string_view dir_path) const {
  return dir_path == "/" || dir_index_.Contains(dir_path);
}

size_t MetadataSnapshot::ChunkIndex(const ChunkId& id) const {
  const uint32_t* idx = chunk_index_.Find(id);
  return idx ? *idx : static_cast<size_t>(-1);
}

std::span<const uint32_t> MetadataSnapshot::FilesOfChunk(
    size_t chunk_index) const {
  if (chunk_index >= chunks_.size()) return {};
  return std::span<const uint32_t>(chunk_files_).subspan(
      chunk_begin_[chunk_index],
      chunk_begin_[chunk_index + 1] - chunk_begin_[chunk_index]);
}

}  // namespace diesel::core
