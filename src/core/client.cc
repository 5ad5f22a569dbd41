#include "core/client.h"

#include <cassert>
#include <span>

#include "obs/metrics.h"
#include "sim/calibration.h"

namespace diesel::core {

DieselClient::DieselClient(net::Fabric& fabric,
                           std::vector<DieselServer*> servers,
                           ClientOptions options)
    : fabric_(fabric), servers_(std::move(servers)),
      options_(std::move(options)),
      builder_(options_.chunk_target_bytes),
      // Machine identity = simulated node, process id = client index; both
      // offset by one so the very first chunk ID is never all-zero.
      id_gen_(options_.node + 1, options_.client_index + 1) {
  assert(!servers_.empty());
  // Register a connection to each server endpoint (DL_connect).
  for (DieselServer* s : servers_) {
    fabric_.connections().Connect(endpoint(), {s->node(), 0});
  }
}

DieselServer* DieselClient::PickServer() {
  // Round-robin over servers whose node is currently reachable; when every
  // server looks up this degenerates to the plain rotation. If all look
  // down, return the next in rotation anyway and let the RPC fail (the
  // retry policy may ride out a flap).
  const size_t n = servers_.size();
  for (size_t i = 0; i < n; ++i) {
    DieselServer* s = servers_[(next_server_ + i) % n];
    if (fabric_.NodeAvailable(s->node(), clock_.now())) {
      if (i > 0) {
        static obs::Counter& failovers =
            obs::Metrics().GetCounter("core.client.failovers");
        failovers.Inc();
        ++stats_.server_failovers;
      }
      next_server_ += i + 1;
      return s;
    }
  }
  DieselServer* s = servers_[next_server_ % n];
  ++next_server_;
  return s;
}

Status DieselClient::Put(const std::string& path, BytesView content) {
  builder_.Add(path, content);
  ++stats_.files_written;
  if (builder_.Full()) return Flush();
  return Status::Ok();
}

Status DieselClient::Flush() {
  if (builder_.Empty()) return Status::Ok();
  uint32_t ts_sec = static_cast<uint32_t>(clock_.now() / 1000000000ULL);
  ChunkId id = id_gen_.Next(ts_sec);
  // Wrapped once: every retry re-sends, and the store keeps, this buffer.
  SharedBytes chunk = ShareBytes(builder_.Finish(id, clock_.now()));
  ++stats_.chunks_flushed;
  // Write-behind: DL_flush returns once the local buffer is on the wire;
  // durability time is tracked for callers that need the write makespan.
  DIESEL_ASSIGN_OR_RETURN(
      Nanos durable, WithServerRetry([&](DieselServer& s) {
        return s.IngestChunkAsync(clock_, options_.node, options_.dataset,
                                  chunk);
      }));
  stats_.last_ingest_durable_ns =
      std::max(stats_.last_ingest_durable_ns, durable);
  return Status::Ok();
}

Result<FileMeta> DieselClient::ResolveMeta(const std::string& path) {
  if (snapshot_) {
    clock_.Advance(sim::kSnapshotLookupCost);
    ++stats_.local_metadata_hits;
    const FileMeta* fm = snapshot_->Lookup(path);
    if (fm == nullptr) return Status::NotFound("no such file: " + path);
    return *fm;
  }
  ++stats_.server_metadata_ops;
  return WithServerRetry([&](DieselServer& s) {
    return s.StatFile(clock_, options_.node, options_.dataset, path);
  });
}

Result<Bytes> DieselClient::Get(const std::string& path) {
  if (cache_ != nullptr) {
    DIESEL_ASSIGN_OR_RETURN(FileMeta meta, ResolveMeta(path));
    DIESEL_ASSIGN_OR_RETURN(FileSlice content, cache_->GetFile(clock_, meta));
    ++stats_.files_read;
    stats_.bytes_read += content.size();
    return content.ToBytes();  // DL_get hands the caller an owned buffer
  }
  DIESEL_ASSIGN_OR_RETURN(Bytes content,
                          WithServerRetry([&](DieselServer& s) {
                            return s.ReadFile(clock_, options_.node,
                                              options_.dataset, path);
                          }));
  ++stats_.files_read;
  stats_.bytes_read += content.size();
  return content;
}

Result<FileMeta> DieselClient::Stat(const std::string& path) {
  return ResolveMeta(path);
}

Result<std::vector<DirEntry>> DieselClient::List(const std::string& dir_path) {
  if (snapshot_) {
    clock_.Advance(sim::kSnapshotLookupCost);
    ++stats_.local_metadata_hits;
    DIESEL_ASSIGN_OR_RETURN(std::span<const DirEntryView> children,
                            snapshot_->ListDir(dir_path));
    std::vector<DirEntry> out;
    out.reserve(children.size());
    for (const DirEntryView& c : children) {
      out.push_back({std::string(c.name), c.is_dir});
    }
    return out;
  }
  ++stats_.server_metadata_ops;
  return WithServerRetry([&](DieselServer& s) {
    return s.ListDir(clock_, options_.node, options_.dataset, dir_path);
  });
}

Status DieselClient::Delete(const std::string& path) {
  // Deletion invalidates any loaded snapshot (dataset timestamp moves).
  Status st = WithServerRetry([&](DieselServer& s) {
    return s.DeleteFile(clock_, options_.node, options_.dataset, path);
  });
  if (st.ok() && snapshot_) snapshot_.reset();
  return st;
}

Status DieselClient::FetchSnapshot() {
  DIESEL_ASSIGN_OR_RETURN(
      MetadataSnapshot snap,
      WithServerRetry([&](DieselServer& s) {
        return s.BuildSnapshot(clock_, options_.node, options_.dataset);
      }));
  snapshot_ = std::move(snap);
  return Status::Ok();
}

Status DieselClient::SaveMeta(ostore::ObjectStore& local_disk,
                              const std::string& key) {
  if (!snapshot_)
    return Status::FailedPrecondition("no snapshot installed; FetchSnapshot first");
  return local_disk.Put(clock_, options_.node, key,
                        ShareBytes(snapshot_->Serialize()));
}

Status DieselClient::LoadMeta(ostore::ObjectStore& local_disk,
                              const std::string& key) {
  DIESEL_ASSIGN_OR_RETURN(SharedBytes data,
                          local_disk.Get(clock_, options_.node, key));
  DIESEL_ASSIGN_OR_RETURN(MetadataSnapshot snap,
                          MetadataSnapshot::Deserialize(*data));
  if (snap.dataset() != options_.dataset)
    return Status::InvalidArgument("snapshot is for dataset '" +
                                   snap.dataset() + "'");
  // Freshness check against the KV record (§4.1.3).
  DIESEL_ASSIGN_OR_RETURN(
      DatasetMeta current,
      WithServerRetry([&](DieselServer& s) {
        return s.GetDatasetMeta(clock_, options_.node, options_.dataset);
      }));
  if (!snap.IsUpToDate(current))
    return Status::Stale("snapshot timestamp does not match dataset; "
                         "download a new snapshot");
  snapshot_ = std::move(snap);
  return Status::Ok();
}

void DieselClient::Close() {
  snapshot_.reset();
  cache_ = nullptr;
  for (DieselServer* s : servers_) {
    fabric_.connections().Disconnect(endpoint(), {s->node(), 0});
  }
}

}  // namespace diesel::core
