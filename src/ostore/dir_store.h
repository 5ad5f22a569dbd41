// DirStore: object store backed by a real directory on the host filesystem.
//
// Used by the dlcmd tool and examples to persist datasets and metadata
// snapshots across process runs. Keys map to files under the root; '/' in a
// key becomes a subdirectory. Virtual clocks are ignored (real I/O).
#pragma once

#include <filesystem>
#include <mutex>

#include "ostore/object_store.h"

namespace diesel::ostore {

class DirStore : public ObjectStore {
 public:
  /// Creates `root` if missing.
  explicit DirStore(std::filesystem::path root);

  Status Put(sim::VirtualClock& clock, sim::NodeId client,
             const std::string& key, SharedBytes data) override;
  Result<SharedBytes> Get(sim::VirtualClock& clock, sim::NodeId client,
                          const std::string& key) override;
  Result<Bytes> GetRange(sim::VirtualClock& clock, sim::NodeId client,
                         const std::string& key, uint64_t offset,
                         uint64_t len) override;
  Status Delete(sim::VirtualClock& clock, sim::NodeId client,
                const std::string& key) override;
  Result<std::vector<std::string>> List(sim::VirtualClock& clock,
                                        sim::NodeId client,
                                        const std::string& prefix) override;
  Result<uint64_t> Size(sim::VirtualClock& clock, sim::NodeId client,
                        const std::string& key) override;
  bool Contains(const std::string& key) const override;
  size_t NumObjects() const override;
  uint64_t TotalBytes() const override;

  const std::filesystem::path& root() const { return root_; }

 private:
  std::filesystem::path PathFor(const std::string& key) const;
  Result<std::string> KeyFor(const std::filesystem::path& file) const;

  std::filesystem::path root_;
};

}  // namespace diesel::ostore
