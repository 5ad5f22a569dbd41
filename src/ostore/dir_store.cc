#include "ostore/dir_store.h"

#include <algorithm>
#include <fstream>

namespace diesel::ostore {

namespace fs = std::filesystem;

DirStore::DirStore(fs::path root) : root_(std::move(root)) {
  std::error_code ec;
  fs::create_directories(root_, ec);
}

fs::path DirStore::PathFor(const std::string& key) const {
  return root_ / fs::path(key);
}

Result<std::string> DirStore::KeyFor(const fs::path& file) const {
  std::error_code ec;
  fs::path rel = fs::relative(file, root_, ec);
  if (ec) return Status::Internal("relative path failed");
  return rel.generic_string();
}

Status DirStore::Put(sim::VirtualClock&, sim::NodeId, const std::string& key,
                     SharedBytes data) {
  fs::path p = PathFor(key);
  std::error_code ec;
  fs::create_directories(p.parent_path(), ec);
  std::ofstream out(p, std::ios::binary | std::ios::trunc);
  if (!out) return Status::IoError("cannot open for write: " + p.string());
  out.write(reinterpret_cast<const char*>(data->data()),
            static_cast<std::streamsize>(data->size()));
  if (!out) return Status::IoError("short write: " + p.string());
  return Status::Ok();
}

Result<SharedBytes> DirStore::Get(sim::VirtualClock&, sim::NodeId,
                                  const std::string& key) {
  fs::path p = PathFor(key);
  std::ifstream in(p, std::ios::binary | std::ios::ate);
  if (!in) return Status::NotFound("object: " + key);
  auto size = in.tellg();
  in.seekg(0);
  auto out = std::make_shared<Bytes>(static_cast<size_t>(size));
  in.read(reinterpret_cast<char*>(out->data()),
          static_cast<std::streamsize>(out->size()));
  if (!in) return Status::IoError("short read: " + p.string());
  return SharedBytes(std::move(out));
}

Result<Bytes> DirStore::GetRange(sim::VirtualClock&, sim::NodeId,
                                 const std::string& key, uint64_t offset,
                                 uint64_t len) {
  fs::path p = PathFor(key);
  std::ifstream in(p, std::ios::binary | std::ios::ate);
  if (!in) return Status::NotFound("object: " + key);
  uint64_t size = static_cast<uint64_t>(in.tellg());
  if (offset > size || len > size - offset)
    return Status::OutOfRange("range past end of object: " + key);
  in.seekg(static_cast<std::streamoff>(offset));
  Bytes out(static_cast<size_t>(len));
  in.read(reinterpret_cast<char*>(out.data()),
          static_cast<std::streamsize>(len));
  if (!in) return Status::IoError("short read: " + p.string());
  return out;
}

Status DirStore::Delete(sim::VirtualClock&, sim::NodeId,
                        const std::string& key) {
  std::error_code ec;
  if (!fs::remove(PathFor(key), ec) || ec)
    return Status::NotFound("object: " + key);
  return Status::Ok();
}

Result<std::vector<std::string>> DirStore::List(sim::VirtualClock&, sim::NodeId,
                                                const std::string& prefix) {
  std::vector<std::string> out;
  std::error_code ec;
  for (auto it = fs::recursive_directory_iterator(root_, ec);
       !ec && it != fs::recursive_directory_iterator(); it.increment(ec)) {
    if (!it->is_regular_file()) continue;
    auto key = KeyFor(it->path());
    if (!key.ok()) continue;
    if (key.value().compare(0, prefix.size(), prefix) == 0)
      out.push_back(key.value());
  }
  std::sort(out.begin(), out.end());
  return out;
}

Result<uint64_t> DirStore::Size(sim::VirtualClock&, sim::NodeId,
                                const std::string& key) {
  std::error_code ec;
  uint64_t size = fs::file_size(PathFor(key), ec);
  if (ec) return Status::NotFound("object: " + key);
  return size;
}

bool DirStore::Contains(const std::string& key) const {
  std::error_code ec;
  return fs::is_regular_file(PathFor(key), ec);
}

size_t DirStore::NumObjects() const {
  size_t n = 0;
  std::error_code ec;
  for (auto it = fs::recursive_directory_iterator(root_, ec);
       !ec && it != fs::recursive_directory_iterator(); it.increment(ec)) {
    if (it->is_regular_file()) ++n;
  }
  return n;
}

uint64_t DirStore::TotalBytes() const {
  uint64_t n = 0;
  std::error_code ec;
  for (auto it = fs::recursive_directory_iterator(root_, ec);
       !ec && it != fs::recursive_directory_iterator(); it.increment(ec)) {
    if (it->is_regular_file()) n += it->file_size();
  }
  return n;
}

}  // namespace diesel::ostore
