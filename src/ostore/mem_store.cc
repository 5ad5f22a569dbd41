#include "ostore/mem_store.h"

namespace diesel::ostore {

Status MemStore::Put(sim::VirtualClock&, sim::NodeId, const std::string& key,
                     SharedBytes data) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto [it, inserted] = blobs_.try_emplace(key);
  if (!inserted) total_bytes_ -= it->second->size();
  total_bytes_ += data->size();
  it->second = std::move(data);
  return Status::Ok();
}

Result<SharedBytes> MemStore::Get(sim::VirtualClock&, sim::NodeId,
                            const std::string& key) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = blobs_.find(key);
  if (it == blobs_.end()) return Status::NotFound("object: " + key);
  return it->second;
}

Result<Bytes> MemStore::GetRange(sim::VirtualClock&, sim::NodeId,
                                 const std::string& key, uint64_t offset,
                                 uint64_t len) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = blobs_.find(key);
  if (it == blobs_.end()) return Status::NotFound("object: " + key);
  const Bytes& blob = *it->second;
  if (offset > blob.size() || len > blob.size() - offset)
    return Status::OutOfRange("range past end of object: " + key);
  return Bytes(blob.begin() + static_cast<ptrdiff_t>(offset),
               blob.begin() + static_cast<ptrdiff_t>(offset + len));
}

Status MemStore::Delete(sim::VirtualClock&, sim::NodeId,
                        const std::string& key) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = blobs_.find(key);
  if (it == blobs_.end()) return Status::NotFound("object: " + key);
  total_bytes_ -= it->second->size();
  blobs_.erase(it);
  return Status::Ok();
}

Result<std::vector<std::string>> MemStore::List(sim::VirtualClock&, sim::NodeId,
                                                const std::string& prefix) {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> out;
  for (auto it = blobs_.lower_bound(prefix); it != blobs_.end(); ++it) {
    if (it->first.compare(0, prefix.size(), prefix) != 0) break;
    out.push_back(it->first);
  }
  return out;
}

Result<uint64_t> MemStore::Size(sim::VirtualClock&, sim::NodeId,
                                const std::string& key) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = blobs_.find(key);
  if (it == blobs_.end()) return Status::NotFound("object: " + key);
  return static_cast<uint64_t>(it->second->size());
}

bool MemStore::Contains(const std::string& key) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return blobs_.count(key) > 0;
}

size_t MemStore::NumObjects() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return blobs_.size();
}

uint64_t MemStore::TotalBytes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return total_bytes_;
}

}  // namespace diesel::ostore
