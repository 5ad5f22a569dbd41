#include "shuffle/group_reader.h"

#include <algorithm>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace diesel::shuffle {
namespace {

/// Registry mirrors of GroupReaderStats, resolved once.
struct ShuffleCounters {
  obs::Counter& epochs;
  obs::Counter& groups_entered;
  obs::Counter& chunk_fetches;
  obs::Counter& chunk_bytes;
  obs::Counter& files_read;
  obs::Counter& bytes_read;
};

ShuffleCounters& Counters() {
  static ShuffleCounters c{
      obs::Metrics().GetCounter("shuffle.epochs"),
      obs::Metrics().GetCounter("shuffle.groups_entered"),
      obs::Metrics().GetCounter("shuffle.chunk_fetches"),
      obs::Metrics().GetCounter("shuffle.chunk_bytes"),
      obs::Metrics().GetCounter("shuffle.files_read"),
      obs::Metrics().GetCounter("shuffle.bytes_read"),
  };
  return c;
}

}  // namespace

GroupWindowReader::GroupWindowReader(core::DieselServer& server,
                                     const core::MetadataSnapshot& snapshot,
                                     sim::NodeId node, size_t fetch_streams)
    : server_(server), snapshot_(snapshot), node_(node),
      fetch_streams_(std::max<size_t>(1, fetch_streams)) {}

void GroupWindowReader::StartEpoch(ShufflePlan plan) {
  Counters().epochs.Inc();
  plan_ = std::move(plan);
  pos_ = 0;
  current_group_ = static_cast<size_t>(-1);
  prefetched_.clear();
  prefetch_group_ = static_cast<size_t>(-1);
  prefetch_done_ = 0;
  FreeWindow();
}

void GroupWindowReader::FreeWindow() {
  window_.clear();
  window_bytes_ = 0;
}

Result<Nanos> GroupWindowReader::FetchGroup(Nanos start, size_t group,
                                            Window& out) {
  // The whole group goes out as ONE coalesced multi-chunk RPC: the per-RPC
  // overhead is paid once per group instead of once per chunk, while the
  // server still pulls the blobs on `fetch_streams_` parallel store streams.
  const std::vector<uint32_t>& chunk_list = plan_.group_chunks.at(group);
  if (chunk_list.empty()) return start;
  std::vector<core::ChunkId> ids;
  ids.reserve(chunk_list.size());
  for (uint32_t ci : chunk_list) ids.push_back(snapshot_.chunks().at(ci));
  sim::VirtualClock clock(start);
  DIESEL_ASSIGN_OR_RETURN(
      std::vector<SharedBytes> blobs,
      server_.ReadChunks(clock, node_, snapshot_.dataset(), ids,
                         fetch_streams_));
  for (size_t i = 0; i < chunk_list.size(); ++i) {
    SharedBytes& blob = blobs[i];
    DIESEL_RETURN_IF_ERROR(core::ChunkView::Parse(*blob).status());
    Counters().chunk_fetches.Inc();
    Counters().chunk_bytes.Inc(blob->size());
    stats_.chunk_bytes_fetched += blob->size();
    ++stats_.chunk_fetches;
    out.emplace(chunk_list[i], core::ChunkBuffer::Wrap(std::move(blob)));
  }
  return clock.now();
}

Status GroupWindowReader::LoadGroup(sim::VirtualClock& clock, size_t group) {
  obs::ScopedSpan span(server_.fabric().tracer(), "shuffle.load_group", clock,
                       node_);
  span.Note("group=" + std::to_string(group) + " chunks=" +
            std::to_string(plan_.group_chunks.at(group).size()));
  FreeWindow();
  if (prefetch_next_ && group == prefetch_group_) {
    // The background fetch started when the previous group was entered;
    // entering this group only waits for its completion.
    window_ = std::move(prefetched_);
    prefetched_.clear();
    prefetch_group_ = static_cast<size_t>(-1);
    clock.AdvanceTo(prefetch_done_);
  } else {
    DIESEL_ASSIGN_OR_RETURN(Nanos done, FetchGroup(clock.now(), group,
                                                   window_));
    clock.AdvanceTo(done);
  }
  window_bytes_ = 0;
  for (const auto& [ci, buf] : window_) window_bytes_ += buf.size();

  // Kick off the next group's background fetch.
  if (prefetch_next_ && group + 1 < plan_.num_groups()) {
    prefetched_.clear();
    DIESEL_ASSIGN_OR_RETURN(prefetch_done_,
                            FetchGroup(clock.now(), group + 1, prefetched_));
    prefetch_group_ = group + 1;
    uint64_t prefetched_bytes = 0;
    for (const auto& [ci, buf] : prefetched_) prefetched_bytes += buf.size();
    stats_.peak_window_bytes = std::max(
        stats_.peak_window_bytes, window_bytes_ + prefetched_bytes);
  }
  stats_.peak_window_bytes = std::max(stats_.peak_window_bytes, window_bytes_);
  Counters().groups_entered.Inc();
  ++stats_.groups_entered;
  current_group_ = group;
  return Status::Ok();
}

Result<uint32_t> GroupWindowReader::PeekIndex() const {
  if (Done()) return Status::OutOfRange("epoch exhausted");
  return plan_.file_order[pos_];
}

Result<core::FileSlice> GroupWindowReader::Next(sim::VirtualClock& clock) {
  if (Done()) return Status::OutOfRange("epoch exhausted");
  size_t group = plan_.GroupOf(pos_);
  if (group != current_group_) {
    DIESEL_RETURN_IF_ERROR(LoadGroup(clock, group));
  }
  const core::FileMeta& meta = snapshot_.files()[plan_.file_order[pos_]];
  size_t ci = snapshot_.ChunkIndex(meta.chunk);
  auto it = window_.find(static_cast<uint32_t>(ci));
  if (it == window_.end())
    return Status::Internal("file's chunk missing from group window: " +
                            meta.full_name);
  // The window holds the stored blob itself, so a corrupt file is reported,
  // not re-fetched: a second read would return the same bytes.
  DIESEL_ASSIGN_OR_RETURN(core::FileSlice slice, it->second.Slice(meta));
  ++pos_;
  Counters().files_read.Inc();
  Counters().bytes_read.Inc(meta.length);
  ++stats_.files_read;
  stats_.bytes_read += meta.length;
  return slice;
}

}  // namespace diesel::shuffle
