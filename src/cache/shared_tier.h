// Cross-task shared cache hook (implemented by tenant::CacheFabric).
//
// A TaskCache is task-grained by design: it is built at task start and torn
// down with the task, so two jobs training over the same dataset each pay
// full backend reads. A SharedCacheTier breaks that waste without giving up
// task containment: the task cache stays the authority for its own
// partitions, but on a miss it first asks the tier to ADOPT a chunk some
// other task already has resident, every backend load is PUBLISHED so later
// tasks can adopt it, and teardown DEMOTES residency into the tier instead
// of discarding it.
//
// The tier hands out the same refcounted core::ChunkBuffer the cache
// stores, so adoption is a refcount bump (plus the simulated transfer
// charge) and outstanding FileSlice views stay valid no matter which task —
// including the one that originally loaded the bytes — tears down first.
// The buffer carries its own per-file CRC memo, so a file whose checksum
// one task has checked is not scanned again by any task holding the blob.
#pragma once

#include "common/status.h"
#include "common/units.h"
#include "core/chunk_buffer.h"
#include "sim/clock.h"
#include "sim/node.h"

namespace diesel::cache {

class SharedCacheTier {
 public:
  virtual ~SharedCacheTier() = default;

  /// Warm-start lookup for `chunk_index` of the bound dataset. On a hit the
  /// simulated transfer (home node -> `reader`) is charged to `clock` and
  /// the shared buffer is returned; NotFound means nothing is resident and
  /// the caller pays the backend read.
  virtual Result<core::ChunkBuffer> Adopt(sim::VirtualClock& clock,
                                          sim::NodeId reader,
                                          size_t chunk_index) = 0;

  /// Offer a freshly backend-loaded chunk (now resident on `home`) to the
  /// tier so other tasks can adopt it. Admission may decline; either way
  /// the caller keeps its own copy.
  virtual void Publish(sim::NodeId home, size_t chunk_index,
                       const core::ChunkBuffer& buffer, Nanos now) = 0;

  /// Teardown demote: offer a resident chunk to the tier instead of
  /// dropping it. Returns the bytes the tier retained (0 = declined, the
  /// bytes are genuinely discarded).
  virtual uint64_t Demote(sim::NodeId home, size_t chunk_index,
                          const core::ChunkBuffer& buffer, Nanos now) = 0;

  /// A reader detected CRC corruption in `buffer` (a copy it adopted from,
  /// or published to, the tier). Drop the shared entry for `chunk_index` iff
  /// it still holds those exact bytes, so later adopters do not keep paying
  /// the adopt transfer + failed scan + backend refetch; if the entry was
  /// already replaced with a different blob, this is a no-op.
  virtual void Invalidate(size_t chunk_index,
                          const core::ChunkBuffer& buffer) = 0;
};

}  // namespace diesel::cache
