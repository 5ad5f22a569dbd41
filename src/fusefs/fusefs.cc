#include "fusefs/fusefs.h"

#include <cassert>

#include "sim/calibration.h"

namespace diesel::fusefs {

FuseMount::FuseMount(std::vector<core::DieselClient*> clients)
    : clients_(std::move(clients)) {
  assert(!clients_.empty());
}

core::DieselClient* FuseMount::PickClient() {
  size_t i = next_client_.fetch_add(1, std::memory_order_relaxed);
  return clients_[i % clients_.size()];
}

void FuseMount::Crossing(sim::VirtualClock& clock) {
  clock.Advance(sim::kFuseCrossingCost);
  requests_.fetch_add(1, std::memory_order_relaxed);
  crossings_ns_.fetch_add(sim::kFuseCrossingCost, std::memory_order_relaxed);
}

Result<Bytes> FuseMount::ReadFile(sim::VirtualClock& clock,
                                  const std::string& path) {
  core::DieselClient* client = PickClient();
  // open(2): lookup + open request through the daemon.
  Crossing(clock);
  client->clock().AdvanceTo(clock.now());
  Result<Bytes> content = client->Get(path);
  clock.AdvanceTo(client->clock().now());
  if (!content.ok()) return content;

  // The kernel issues read(2) requests in kFuseMaxRead slices; the first
  // slice rode along with the fetch above, the rest each pay a crossing.
  uint64_t size = content.value().size();
  uint64_t slices = size == 0 ? 1 : (size + sim::kFuseMaxRead - 1) / sim::kFuseMaxRead;
  for (uint64_t i = 1; i < slices; ++i) Crossing(clock);
  // close(2).
  Crossing(clock);
  bytes_read_.fetch_add(size, std::memory_order_relaxed);
  return content;
}

Result<std::vector<core::DirEntry>> FuseMount::ReadDir(
    sim::VirtualClock& clock, const std::string& path) {
  core::DieselClient* client = PickClient();
  Crossing(clock);
  client->clock().AdvanceTo(clock.now());
  Result<std::vector<core::DirEntry>> entries = client->List(path);
  clock.AdvanceTo(client->clock().now());
  return entries;
}

Result<PosixStat> FuseMount::Stat(sim::VirtualClock& clock,
                                  const std::string& path, bool need_size) {
  (void)need_size;  // snapshot lookups return size at no extra cost
  core::DieselClient* client = PickClient();
  Crossing(clock);
  client->clock().AdvanceTo(clock.now());
  Result<core::FileMeta> meta = client->Stat(path);
  clock.AdvanceTo(client->clock().now());
  if (meta.ok()) return PosixStat{meta.value().length, false};
  // Not a file: maybe a directory known to the snapshot.
  if (meta.status().IsNotFound() && client->snapshot() != nullptr &&
      client->snapshot()->HasDir(path)) {
    return PosixStat{0, true};
  }
  return meta.status();
}

}  // namespace diesel::fusefs
