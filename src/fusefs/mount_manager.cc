#include "fusefs/mount_manager.h"

namespace diesel::fusefs {

bool MountManager::IsValidMountpoint(const std::string& mp) {
  if (mp.empty() || mp[0] != '/') return false;
  if (mp.size() > 1 && mp.back() == '/') return false;  // normalized
  return mp.find("//") == std::string::npos;
}

Result<FuseMount*> MountManager::Mount(
    const std::string& mountpoint,
    std::vector<core::DieselClient*> daemon_clients,
    const std::string& dataset_prefix) {
  if (!IsValidMountpoint(mountpoint))
    return Status::InvalidArgument("bad mountpoint: " + mountpoint);
  if (daemon_clients.empty())
    return Status::InvalidArgument("mount needs at least one daemon client");
  std::lock_guard<std::mutex> lock(mutex_);
  if (mounts_.count(mountpoint) > 0)
    return Status::AlreadyExists("already mounted: " + mountpoint);
  Entry entry{std::make_unique<FuseMount>(std::move(daemon_clients)),
              dataset_prefix};
  FuseMount* raw = entry.mount.get();
  mounts_.emplace(mountpoint, std::move(entry));
  return raw;
}

Status MountManager::Unmount(const std::string& mountpoint) {
  std::lock_guard<std::mutex> lock(mutex_);
  return mounts_.erase(mountpoint) > 0
             ? Status::Ok()
             : Status::NotFound("not mounted: " + mountpoint);
}

Result<std::pair<FuseMount*, std::string>> MountManager::Resolve(
    const std::string& path) const {
  std::lock_guard<std::mutex> lock(mutex_);
  // Longest prefix whose boundary is a path separator (or exact match).
  const std::string* best = nullptr;
  const Entry* entry = nullptr;
  for (const auto& [mp, e] : mounts_) {
    bool covers = path.compare(0, mp.size(), mp) == 0 &&
                  (path.size() == mp.size() || path[mp.size()] == '/' ||
                   mp == "/");
    if (!covers) continue;
    if (best == nullptr || mp.size() > best->size()) {
      best = &mp;
      entry = &e;
    }
  }
  if (entry == nullptr)
    return Status::NotFound("no mount covers path: " + path);
  std::string_view rel(path);
  if (*best != "/") rel.remove_prefix(best->size());
  if (rel.empty()) rel = "/";
  std::string target = entry->prefix;
  target.append(rel);
  return std::make_pair(entry->mount.get(), std::move(target));
}

Result<Bytes> MountManager::ReadFile(sim::VirtualClock& clock,
                                     const std::string& path) {
  DIESEL_ASSIGN_OR_RETURN(auto target, Resolve(path));
  return target.first->ReadFile(clock, target.second);
}

Result<PosixStat> MountManager::Stat(sim::VirtualClock& clock,
                                     const std::string& path, bool need_size) {
  DIESEL_ASSIGN_OR_RETURN(auto target, Resolve(path));
  return target.first->Stat(clock, target.second, need_size);
}

Result<std::vector<core::DirEntry>> MountManager::ReadDir(
    sim::VirtualClock& clock, const std::string& path) {
  DIESEL_ASSIGN_OR_RETURN(auto target, Resolve(path));
  return target.first->ReadDir(clock, target.second);
}

std::vector<std::string> MountManager::Mountpoints() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> out;
  out.reserve(mounts_.size());
  for (const auto& [mp, e] : mounts_) out.push_back(mp);
  return out;
}

size_t MountManager::NumMounts() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return mounts_.size();
}

}  // namespace diesel::fusefs
