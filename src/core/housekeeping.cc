#include "core/housekeeping.h"

#include <algorithm>

#include "core/chunk_format.h"

namespace diesel::core {
namespace {

/// `gen`'s next ID stamped `ts_sec` that is none of `existing`. Each run
/// restarts the generator's counter, so an earlier run's output may already
/// hold the ID it hands out next.
ChunkId FreshId(ChunkIdGenerator& gen, uint32_t ts_sec,
                const std::vector<ChunkId>& existing) {
  ChunkId id = gen.Next(ts_sec);
  while (std::find(existing.begin(), existing.end(), id) != existing.end()) {
    id = gen.Next(ts_sec);
  }
  return id;
}

}  // namespace

Result<PurgeStats> PurgeDataset(sim::VirtualClock& clock, DieselServer& server,
                                const std::string& dataset) {
  PurgeStats stats;
  MetadataService& meta = server.metadata();
  sim::NodeId node = server.node();

  DIESEL_ASSIGN_OR_RETURN(std::vector<ChunkId> chunks,
                          meta.ListChunks(clock, dataset));
  ChunkIdGenerator gen(node, 0xFFFFFF);  // housekeeping process id
  for (const ChunkId& old_id : chunks) {
    DIESEL_ASSIGN_OR_RETURN(ChunkMeta cm, meta.GetChunk(clock, dataset, old_id));
    if (cm.num_deleted == 0) continue;

    std::string old_key = ChunkObjectKey(dataset, old_id);
    DIESEL_ASSIGN_OR_RETURN(SharedBytes old_blob,
                            server.store().Get(clock, node, old_key));

    // Compact: drop files flagged in the KV-side deletion bitmap. The new
    // chunk keeps the original creation timestamp in its ID's time field but
    // gets a fresh identity so readers never see a half-written blob.
    ChunkId new_id = FreshId(gen, old_id.timestamp_sec(), chunks);
    DIESEL_ASSIGN_OR_RETURN(
        Bytes compacted,
        CompactChunk(*old_blob, cm.deletion_bitmap, new_id, clock.now()));
    SharedBytes new_blob = ShareBytes(std::move(compacted));
    DIESEL_ASSIGN_OR_RETURN(ChunkView view, ChunkView::Parse(*new_blob));

    DIESEL_RETURN_IF_ERROR(server.store().Put(
        clock, node, ChunkObjectKey(dataset, new_id), new_blob));
    // Re-register surviving files under the new chunk, then drop the old
    // chunk record and blob.
    DIESEL_RETURN_IF_ERROR(
        meta.RegisterChunk(clock, dataset, view, new_blob->size()).status());
    DIESEL_RETURN_IF_ERROR(meta.DropChunk(clock, dataset, old_id));
    DIESEL_RETURN_IF_ERROR(server.store().Delete(clock, node, old_key));

    stats.chunks_compacted += 1;
    stats.files_dropped += cm.num_deleted;
    stats.bytes_reclaimed += old_blob->size() - new_blob->size();
  }

  if (stats.chunks_compacted > 0) {
    DIESEL_RETURN_IF_ERROR(
        meta.UpdateDataset(clock, dataset, clock.now(), [&](DatasetMeta& dm) {
          dm.num_files -= stats.files_dropped;
          dm.total_bytes -= stats.bytes_reclaimed;
          return Status::Ok();
        }));
  }
  return stats;
}

Result<MergeStats> MergeSmallChunks(sim::VirtualClock& clock,
                                    DieselServer& server,
                                    const std::string& dataset,
                                    uint64_t min_chunk_bytes) {
  MergeStats stats;
  MetadataService& meta = server.metadata();
  sim::NodeId node = server.node();

  DIESEL_ASSIGN_OR_RETURN(std::vector<ChunkId> chunks,
                          meta.ListChunks(clock, dataset));
  // Collect undersized chunks (by live payload) in write order.
  std::vector<ChunkId> small;
  uint64_t kept_bytes = 0;  // blobs of the chunks left as they are
  for (const ChunkId& id : chunks) {
    DIESEL_ASSIGN_OR_RETURN(ChunkMeta cm, meta.GetChunk(clock, dataset, id));
    if (cm.num_deleted > 0)
      return Status::FailedPrecondition(
          "merge requires a purge first (chunk has deletion holes)");
    if (cm.size < min_chunk_bytes) {
      small.push_back(id);
    } else {
      kept_bytes += cm.size;
    }
  }
  if (small.size() < 2) return stats;  // nothing to coalesce

  ChunkIdGenerator gen(node, 0xFFFFFE);  // housekeeping-merge process id
  ChunkBuilder builder(min_chunk_bytes);
  std::vector<ChunkId> consumed;

  auto flush = [&](uint32_t ts_sec) -> Status {
    if (builder.Empty()) return Status::Ok();
    ChunkId new_id = FreshId(gen, ts_sec, chunks);
    SharedBytes blob = ShareBytes(builder.Finish(new_id, clock.now()));
    DIESEL_ASSIGN_OR_RETURN(ChunkView view, ChunkView::Parse(*blob));
    DIESEL_RETURN_IF_ERROR(server.store().Put(
        clock, node, ChunkObjectKey(dataset, new_id), blob));
    DIESEL_RETURN_IF_ERROR(
        meta.RegisterChunk(clock, dataset, view, blob->size()).status());
    stats.bytes_rewritten += blob->size();
    stats.chunks_created += 1;
    return Status::Ok();
  };

  for (const ChunkId& id : small) {
    DIESEL_ASSIGN_OR_RETURN(
        SharedBytes blob,
        server.store().Get(clock, node, ChunkObjectKey(dataset, id)));
    DIESEL_ASSIGN_OR_RETURN(ChunkView view, ChunkView::Parse(*blob));
    for (size_t i = 0; i < view.entries().size(); ++i) {
      DIESEL_ASSIGN_OR_RETURN(Bytes content, view.ExtractFile(i));
      builder.Add(view.entries()[i].name, content);
      if (builder.Full()) {
        DIESEL_RETURN_IF_ERROR(flush(id.timestamp_sec()));
      }
    }
    consumed.push_back(id);
    stats.chunks_merged += 1;
  }
  if (!consumed.empty()) {
    DIESEL_RETURN_IF_ERROR(flush(consumed.back().timestamp_sec()));
  }

  // Drop the consumed chunks' records and blobs; file keys were repointed by
  // the RegisterChunk overwrites above.
  for (const ChunkId& id : consumed) {
    DIESEL_RETURN_IF_ERROR(meta.DropChunk(clock, dataset, id));
    DIESEL_RETURN_IF_ERROR(
        server.store().Delete(clock, node, ChunkObjectKey(dataset, id)));
  }

  // Refresh dataset accounting from the authoritative chunk list.
  DIESEL_ASSIGN_OR_RETURN(std::vector<ChunkId> remaining,
                          meta.ListChunks(clock, dataset));
  DIESEL_RETURN_IF_ERROR(
      meta.UpdateDataset(clock, dataset, clock.now(), [&](DatasetMeta& dm) {
        dm.num_chunks = remaining.size();
        dm.total_bytes = kept_bytes + stats.bytes_rewritten;
        return Status::Ok();
      }));
  return stats;
}

Result<ScrubStats> ScrubDataset(sim::VirtualClock& clock, DieselServer& server,
                                const std::string& dataset) {
  ScrubStats stats;
  sim::NodeId node = server.node();
  DIESEL_ASSIGN_OR_RETURN(
      std::vector<std::string> keys,
      server.store().List(clock, node, ChunkObjectPrefix(dataset)));
  for (const std::string& key : keys) {
    DIESEL_ASSIGN_OR_RETURN(SharedBytes blob,
                            server.store().Get(clock, node, key));
    ++stats.chunks_checked;
    Result<ChunkView> view = ChunkView::Parse(*blob);
    if (!view.ok()) {
      ++stats.corrupt_chunks;
      stats.corrupt_keys.push_back(key);
      continue;
    }
    bool chunk_bad = false;
    for (size_t i = 0; i < view->entries().size(); ++i) {
      if (view->IsDeleted(i)) continue;
      ++stats.files_checked;
      if (!view->ExtractFile(i).ok()) {
        ++stats.corrupt_files;
        chunk_bad = true;
      }
    }
    if (chunk_bad) stats.corrupt_keys.push_back(key);
  }
  return stats;
}

}  // namespace diesel::core
