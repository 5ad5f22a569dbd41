// FUSE mount management (§5: "Separate APIs are provided to users to manage
// the FUSE subsystem (i.e., mount, unmount)").
//
// A MountManager keeps a table of mountpoints, each backed by a FuseMount
// whose daemon runs a pool of DIESEL clients. Paths are resolved
// longest-prefix-first, so nested mountpoints behave like a real VFS. A
// mount lives as long as its manager: nothing in the system unmounts.
#pragma once

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "fusefs/fusefs.h"

namespace diesel::fusefs {

class MountManager {
 public:
  /// Mount a DIESEL dataset at `mountpoint` (absolute, normalized, e.g.
  /// "/mnt/imagenet"). `daemon_clients` are the FUSE daemon's worker clients
  /// (>= 1, must outlive the manager). `dataset_prefix` maps the mount root
  /// onto the dataset's internal namespace (e.g. "/imagenet", so
  /// "/mnt/imagenet/train/x" resolves to "/imagenet/train/x").
  /// AlreadyExists if occupied.
  Result<FuseMount*> Mount(const std::string& mountpoint,
                           std::vector<core::DieselClient*> daemon_clients,
                           const std::string& dataset_prefix = "");

  /// Longest-prefix resolution: "/mnt/imagenet/train/x.jpg" ->
  /// (mount at /mnt/imagenet, "<dataset_prefix>/train/x.jpg"). NotFound if
  /// no mount covers the path.
  Result<std::pair<FuseMount*, std::string>> Resolve(
      const std::string& path) const;

  /// Convenience: resolve + read through the owning mount.
  Result<Bytes> ReadFile(sim::VirtualClock& clock, const std::string& path);
  Result<PosixStat> Stat(sim::VirtualClock& clock, const std::string& path,
                         bool need_size);
  Result<std::vector<core::DirEntry>> ReadDir(sim::VirtualClock& clock,
                                              const std::string& path);

 private:
  struct Entry {
    std::unique_ptr<FuseMount> mount;
    std::string prefix;
  };

  static bool IsValidMountpoint(const std::string& mp);

  mutable std::mutex mutex_;
  std::map<std::string, Entry> mounts_;
};

}  // namespace diesel::fusefs
