#include "core/housekeeping.h"

#include "core/chunk_format.h"

namespace diesel::core {

Result<PurgeStats> PurgeDataset(sim::VirtualClock& clock, DieselServer& server,
                                const std::string& dataset) {
  PurgeStats stats;
  MetadataService& meta = server.metadata();
  sim::NodeId node = server.node();

  DIESEL_ASSIGN_OR_RETURN(std::vector<ChunkId> chunks,
                          meta.ListChunks(clock, dataset));
  DatasetMeta dm;
  {
    Result<DatasetMeta> cur = meta.GetDataset(clock, dataset);
    if (cur.ok()) dm = cur.value();
  }

  for (const ChunkId& old_id : chunks) {
    DIESEL_ASSIGN_OR_RETURN(ChunkMeta cm, meta.GetChunk(clock, dataset, old_id));
    if (cm.num_deleted == 0) continue;

    std::string old_key = ChunkObjectKey(dataset, old_id);
    DIESEL_ASSIGN_OR_RETURN(SharedBytes old_blob,
                            server.store().Get(clock, node, old_key));

    // Compact: drop files flagged in the KV-side deletion bitmap. The new
    // chunk keeps the original creation timestamp in its ID's time field but
    // gets a fresh identity so readers never see a half-written blob.
    ChunkIdGenerator gen(node, 0xFFFFFF);  // housekeeping process id
    ChunkId new_id = gen.Next(old_id.timestamp_sec());
    DIESEL_ASSIGN_OR_RETURN(
        Bytes compacted,
        CompactChunk(*old_blob, cm.deletion_bitmap, new_id, clock.now()));
    SharedBytes new_blob = ShareBytes(std::move(compacted));
    DIESEL_ASSIGN_OR_RETURN(ChunkView view, ChunkView::Parse(*new_blob));

    DIESEL_RETURN_IF_ERROR(server.store().Put(
        clock, node, ChunkObjectKey(dataset, new_id), new_blob));

    // Re-register surviving files under the new chunk.
    std::vector<FileMeta> files;
    files.reserve(view.entries().size());
    uint32_t index = 0;
    for (const ChunkFileEntry& e : view.entries()) {
      FileMeta fm;
      fm.chunk = new_id;
      fm.offset = e.offset;
      fm.length = e.length;
      fm.crc = e.crc;
      fm.index_in_chunk = index++;
      fm.full_name = e.name;
      files.push_back(std::move(fm));
    }
    ChunkMeta new_cm;
    new_cm.update_ts_ns = clock.now();
    new_cm.size = new_blob->size();
    new_cm.header_len = view.header_len();
    new_cm.num_files = static_cast<uint32_t>(files.size());
    new_cm.num_deleted = 0;
    new_cm.deletion_bitmap.assign((files.size() + 7) / 8, 0);
    DIESEL_RETURN_IF_ERROR(meta.AddChunk(clock, dataset, new_id, new_cm, files));

    // Drop the old chunk record and blob.
    DIESEL_RETURN_IF_ERROR(
        meta.kvstore().Delete(clock, node, ChunkKey(dataset, old_id)));
    DIESEL_RETURN_IF_ERROR(server.store().Delete(clock, node, old_key));

    stats.chunks_compacted += 1;
    stats.files_dropped += cm.num_deleted;
    stats.bytes_reclaimed += old_blob->size() - new_blob->size();
    dm.num_files -= cm.num_deleted;
    dm.total_bytes -= old_blob->size() - new_blob->size();
    dm.update_ts_ns = clock.now();
  }

  if (stats.chunks_compacted > 0) {
    DIESEL_RETURN_IF_ERROR(meta.PutDataset(clock, dataset, dm));
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
  for (const ChunkId& id : chunks) {
    DIESEL_ASSIGN_OR_RETURN(ChunkMeta cm, meta.GetChunk(clock, dataset, id));
    if (cm.num_deleted > 0)
      return Status::FailedPrecondition(
          "merge requires a purge first (chunk has deletion holes)");
    if (cm.size < min_chunk_bytes) small.push_back(id);
  }
  if (small.size() < 2) return stats;  // nothing to coalesce

  ChunkIdGenerator gen(node, 0xFFFFFE);  // housekeeping-merge process id
  ChunkBuilder builder(min_chunk_bytes);
  std::vector<ChunkId> consumed;

  auto flush = [&](uint32_t ts_sec) -> Status {
    if (builder.Empty()) return Status::Ok();
    ChunkId new_id = gen.Next(ts_sec);
    SharedBytes blob = ShareBytes(builder.Finish(new_id, clock.now()));
    DIESEL_ASSIGN_OR_RETURN(ChunkView view, ChunkView::Parse(*blob));
    DIESEL_RETURN_IF_ERROR(server.store().Put(
        clock, node, ChunkObjectKey(dataset, new_id), blob));
    std::vector<FileMeta> files;
    uint32_t index = 0;
    for (const ChunkFileEntry& e : view.entries()) {
      FileMeta fm;
      fm.chunk = new_id;
      fm.offset = e.offset;
      fm.length = e.length;
      fm.crc = e.crc;
      fm.index_in_chunk = index++;
      fm.full_name = e.name;
      files.push_back(std::move(fm));
    }
    ChunkMeta cm;
    cm.update_ts_ns = clock.now();
    cm.size = blob->size();
    cm.header_len = view.header_len();
    cm.num_files = static_cast<uint32_t>(files.size());
    cm.deletion_bitmap.assign((files.size() + 7) / 8, 0);
    DIESEL_RETURN_IF_ERROR(meta.AddChunk(clock, dataset, new_id, cm, files));
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
  // the AddChunk overwrites above.
  for (const ChunkId& id : consumed) {
    DIESEL_RETURN_IF_ERROR(
        meta.kvstore().Delete(clock, node, ChunkKey(dataset, id)));
    DIESEL_RETURN_IF_ERROR(
        server.store().Delete(clock, node, ChunkObjectKey(dataset, id)));
  }

  // Refresh dataset accounting from the authoritative chunk list.
  DIESEL_ASSIGN_OR_RETURN(std::vector<ChunkId> remaining,
                          meta.ListChunks(clock, dataset));
  DatasetMeta dm;
  Result<DatasetMeta> cur = meta.GetDataset(clock, dataset);
  if (cur.ok()) dm = cur.value();
  dm.num_chunks = remaining.size();
  dm.update_ts_ns = clock.now();
  DIESEL_RETURN_IF_ERROR(meta.PutDataset(clock, dataset, dm));
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
