// DIESEL-FUSE: POSIX facade over libDIESEL (§5 "User Interface").
//
// Models the userspace-filesystem costs the paper measures: every request
// pays a user/kernel crossing (context switches), and the kernel splits
// large reads into requests of at most kFuseMaxRead (128 KB) that are
// forwarded to the userspace daemon. The daemon runs a multi-threaded loop
// with multiple DIESEL clients per mount, so concurrent POSIX readers map
// onto different clients (the paper's optimization for FUSE throughput).
#pragma once

#include <atomic>
#include <memory>
#include <vector>

#include "core/client.h"
#include "fusefs/posix_like.h"

namespace diesel::fusefs {

struct FuseStats {
  uint64_t requests = 0;        // kernel->daemon request count
  uint64_t crossings_ns = 0;    // total crossing overhead charged
  uint64_t bytes_read = 0;
};

class FuseMount : public PosixLike {
 public:
  /// `clients` are the daemon's worker clients (>= 1); they must outlive the
  /// mount. Requests round-robin across them.
  explicit FuseMount(std::vector<core::DieselClient*> clients);

  /// open(2) + read(2) loop + close(2): fetch a whole file through the FUSE
  /// request pipeline.
  Result<Bytes> ReadFile(sim::VirtualClock& clock, const std::string& path);

  Result<std::vector<core::DirEntry>> ReadDir(sim::VirtualClock& clock,
                                              const std::string& path) override;

  Result<PosixStat> Stat(sim::VirtualClock& clock, const std::string& path,
                         bool need_size) override;

  FuseStats stats() const {
    return {requests_.load(), crossings_ns_.load(), bytes_read_.load()};
  }

 private:
  core::DieselClient* PickClient();
  /// Charge one kernel<->userspace crossing on `clock`.
  void Crossing(sim::VirtualClock& clock);

  std::vector<core::DieselClient*> clients_;
  std::atomic<size_t> next_client_{0};
  std::atomic<uint64_t> requests_{0};
  std::atomic<uint64_t> crossings_ns_{0};
  std::atomic<uint64_t> bytes_read_{0};
};

}  // namespace diesel::fusefs
