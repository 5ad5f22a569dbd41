#include "kv/shard.h"

namespace diesel::kv {

Status Shard::Put(std::string key, std::string value) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!up_) return Status::Unavailable("shard down");
  data_[std::move(key)] = std::move(value);
  return Status::Ok();
}

Status Shard::PutBatch(
    std::vector<std::pair<std::string, std::string>>& entries) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!up_) return Status::Unavailable("shard down");
  for (auto& [key, value] : entries) {
    data_.insert_or_assign(std::move(key), std::move(value));
  }
  return Status::Ok();
}

Result<std::string> Shard::Get(const std::string& key) const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!up_) return Status::Unavailable("shard down");
  auto it = data_.find(key);
  if (it == data_.end()) return Status::NotFound("key: " + key);
  return it->second;
}

Status Shard::Delete(const std::string& key) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!up_) return Status::Unavailable("shard down");
  return data_.erase(key) > 0 ? Status::Ok()
                              : Status::NotFound("key: " + key);
}

}  // namespace diesel::kv
