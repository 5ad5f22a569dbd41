// Object-store abstraction for chunk blobs (stands in for Ceph/Lustre-backed
// object storage, Fig. 2).
//
// DIESEL stores data chunks as immutable blobs keyed by their encoded chunk
// ID; listing returns keys in lexicographic order, which — with the
// order-preserving chunk-ID encoding — is write order, the property the
// metadata recovery scan depends on (§4.1.2).
//
// Ownership contract: a blob is immutable once Put. Put takes a shared
// reference instead of copying the bytes, and Get hands back the stored
// reference, so a chunk travels from the client's builder to the task cache
// without a copy. Nobody writes through a SharedBytes; a caller that must
// alter bytes (fault injection) copies first. An overwrite or Delete only
// drops the store's reference: a reader holding the old blob keeps it
// intact. GetRange returns an owned copy of the range.
#pragma once

#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/status.h"
#include "sim/clock.h"
#include "sim/node.h"

namespace diesel::ostore {

class ObjectStore {
 public:
  virtual ~ObjectStore() = default;

  /// Store a blob (overwrites). `data` must be non-null; the store keeps
  /// the reference (in-memory stores) or writes the bytes out (DirStore).
  virtual Status Put(sim::VirtualClock& clock, sim::NodeId client,
                     const std::string& key, SharedBytes data) = 0;

  /// Fetch a whole blob: the stored reference, not a copy.
  virtual Result<SharedBytes> Get(sim::VirtualClock& clock,
                                  sim::NodeId client,
                                  const std::string& key) = 0;

  /// Fetch `len` bytes starting at `offset`. OutOfRange if past the end.
  virtual Result<Bytes> GetRange(sim::VirtualClock& clock, sim::NodeId client,
                                 const std::string& key, uint64_t offset,
                                 uint64_t len) = 0;

  virtual Status Delete(sim::VirtualClock& clock, sim::NodeId client,
                        const std::string& key) = 0;

  /// Keys with the given prefix, lexicographically sorted.
  virtual Result<std::vector<std::string>> List(sim::VirtualClock& clock,
                                                sim::NodeId client,
                                                const std::string& prefix) = 0;

  virtual Result<uint64_t> Size(sim::VirtualClock& clock, sim::NodeId client,
                                const std::string& key) = 0;

  virtual bool Contains(const std::string& key) const = 0;
  virtual size_t NumObjects() const = 0;
  virtual uint64_t TotalBytes() const = 0;
};

}  // namespace diesel::ostore
