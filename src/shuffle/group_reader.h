// GroupWindowReader: executes a chunk-wise shuffle plan with a bounded
// chunk window (§4.3).
//
// Entering a group fetches that group's chunks from the DIESEL server as
// whole-chunk reads; every file read inside the group is then a memory copy
// from the window; leaving a group frees its chunks. Peak memory is
// ~group_size x chunk_size regardless of dataset size — the property that
// lets DIESEL keep near-cached read speed in memory-constrained scenarios
// (paper: 2 GB window for a 150 GB ImageNet epoch, >= 88% of fully-cached
// speed).
#pragma once

#include <unordered_map>

#include "common/bytes.h"
#include "core/chunk_buffer.h"
#include "core/chunk_format.h"
#include "core/server.h"
#include "core/snapshot.h"
#include "shuffle/shuffle.h"

namespace diesel::shuffle {

struct GroupReaderStats {
  uint64_t files_read = 0;
  uint64_t bytes_read = 0;
  uint64_t chunk_fetches = 0;
  uint64_t chunk_bytes_fetched = 0;
  uint64_t peak_window_bytes = 0;
  size_t groups_entered = 0;
};

class GroupWindowReader {
 public:
  /// `server` supplies chunks; `snapshot` maps files; the reader runs on
  /// behalf of `node`. All must outlive the reader. `fetch_streams` is the
  /// number of concurrent chunk fetches used when a group window loads (the
  /// FUSE daemon runs multiple DIESEL clients, §5).
  GroupWindowReader(core::DieselServer& server,
                    const core::MetadataSnapshot& snapshot, sim::NodeId node,
                    size_t fetch_streams = 4);

  /// Overlap mode: while group g is being consumed, group g+1's chunks are
  /// fetched in the background, so entering g+1 only waits for whatever of
  /// its load hasn't finished yet ("after the first few mini-batch reads,
  /// subsequent file reads can be performed directly from [the] cache",
  /// §4.3). Doubles the peak window (two groups resident).
  void set_prefetch_next_group(bool on) { prefetch_next_ = on; }

  /// Install a (possibly partitioned) epoch plan and rewind.
  void StartEpoch(ShufflePlan plan);

  bool Done() const { return pos_ >= plan_.file_order.size(); }
  size_t position() const { return pos_; }
  size_t num_files() const { return plan_.file_order.size(); }

  /// Read the next file in plan order. Loads the group window on group
  /// entry (charging `clock` with the chunk-wise reads). The returned slice
  /// shares the window chunk's blob and stays valid after the window rotates
  /// past it. A file whose range or CRC does not check out returns
  /// Corruption and leaves position() where it was.
  Result<core::FileSlice> Next(sim::VirtualClock& clock);

  /// Index (into snapshot.files()) of the file Next() will return.
  Result<uint32_t> PeekIndex() const;

  const GroupReaderStats& stats() const { return stats_; }

 private:
  using Window = std::unordered_map<uint32_t, core::ChunkBuffer>;

  Status LoadGroup(sim::VirtualClock& clock, size_t group);
  /// Fetch `group`'s chunks into `out` starting at virtual time `start`;
  /// returns the load completion time.
  Result<Nanos> FetchGroup(Nanos start, size_t group, Window& out);
  void FreeWindow();

  core::DieselServer& server_;
  const core::MetadataSnapshot& snapshot_;
  sim::NodeId node_;
  size_t fetch_streams_;
  bool prefetch_next_ = false;
  ShufflePlan plan_;
  size_t pos_ = 0;
  size_t current_group_ = static_cast<size_t>(-1);

  Window window_;
  uint64_t window_bytes_ = 0;
  // Background prefetch of the next group (valid when prefetch_group_ !=
  // SIZE_MAX): contents plus the virtual time the fetch finishes.
  Window prefetched_;
  size_t prefetch_group_ = static_cast<size_t>(-1);
  Nanos prefetch_done_ = 0;
  GroupReaderStats stats_;
};

}  // namespace diesel::shuffle
