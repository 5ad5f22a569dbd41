#include "dlt/distributed_task.h"

#include <algorithm>

namespace diesel::dlt {

DistributedTrainingTask::DistributedTrainingTask(core::Deployment& deployment,
                                                 std::string dataset,
                                                 DistributedTaskOptions options)
    : deployment_(deployment), dataset_(std::move(dataset)),
      options_(options), rng_(options.seed) {}

Status DistributedTrainingTask::Setup() {
  if (options_.num_nodes > deployment_.num_client_nodes())
    return Status::InvalidArgument("deployment has too few client nodes");
  if (options_.num_nodes == 0 || options_.io_workers_per_node == 0 ||
      options_.minibatch == 0) {
    return Status::InvalidArgument("task shape must be non-zero");
  }

  // One DIESEL client per I/O worker (Fig. 7); registration order gives
  // the master ranks.
  for (size_t n = 0; n < options_.num_nodes; ++n) {
    for (size_t w = 0; w < options_.io_workers_per_node; ++w) {
      clients_.push_back(deployment_.MakeClient(
          n, static_cast<uint32_t>(100 + w), dataset_));
      registry_.Register(clients_.back()->endpoint());
    }
  }
  DIESEL_RETURN_IF_ERROR(clients_[0]->FetchSnapshot());
  snapshot_ =
      std::make_unique<core::MetadataSnapshot>(*clients_[0]->snapshot());

  if (options_.use_task_cache) {
    cache_ = std::make_unique<cache::TaskCache>(
        deployment_.fabric(), deployment_.server(0), *snapshot_, registry_,
        options_.cache);
    cache_->EstablishConnections();
    if (options_.cache.policy == cache::CachePolicy::kOneshot) {
      DIESEL_ASSIGN_OR_RETURN(task_time_, cache_->Preload(0));
    }
    for (auto& client : clients_) {
      handles_.push_back(cache_->HandleFor(client->endpoint()));
      client->AttachCache(handles_.back().get());
    }
  } else {
    // Memory-constrained mode: one group-window reader per I/O worker.
    for (size_t n = 0; n < options_.num_nodes; ++n) {
      for (size_t w = 0; w < options_.io_workers_per_node; ++w) {
        readers_.push_back(std::make_unique<shuffle::GroupWindowReader>(
            deployment_.server((n + w) % deployment_.num_servers()),
            *snapshot_, static_cast<sim::NodeId>(n)));
      }
    }
  }
  ready_ = true;
  return Status::Ok();
}

Result<EpochReport> DistributedTrainingTask::RunEpoch(
    const std::function<Status(std::span<const Bytes>)>& on_batch) {
  if (!ready_) return Status::FailedPrecondition("Setup() has not succeeded");

  EpochReport report;
  report.epoch = ++epoch_;
  shuffle::ShufflePlan plan =
      shuffle::ChunkWiseShuffle(*snapshot_, options_.shuffle, rng_);

  const size_t parts = clients_.size();
  std::vector<Nanos> node_end(options_.num_nodes, task_time_);

  for (size_t part = 0; part < parts; ++part) {
    size_t node = part % options_.num_nodes;
    shuffle::ShufflePlan sub = shuffle::PartitionPlan(plan, part, parts);
    std::vector<Bytes> batch;
    batch.reserve(options_.minibatch);

    auto deliver = [&]() -> Status {
      if (batch.empty()) return Status::Ok();
      Status st = on_batch(batch);
      batch.clear();
      return st;
    };

    if (options_.use_task_cache) {
      core::DieselClient& client = *clients_[part];
      client.clock().AdvanceTo(task_time_);
      for (uint32_t idx : sub.file_order) {
        const core::FileMeta& fm = snapshot_->files()[idx];
        DIESEL_ASSIGN_OR_RETURN(Bytes content, client.Get(fm.full_name));
        report.bytes_read += content.size();
        ++report.files_read;
        batch.push_back(std::move(content));
        if (batch.size() == options_.minibatch) DIESEL_RETURN_IF_ERROR(deliver());
      }
      DIESEL_RETURN_IF_ERROR(deliver());
      node_end[node] = std::max(node_end[node], client.clock().now());
    } else {
      shuffle::GroupWindowReader& reader = *readers_[part];
      reader.StartEpoch(std::move(sub));
      sim::VirtualClock clock(task_time_);
      while (!reader.Done()) {
        DIESEL_ASSIGN_OR_RETURN(core::FileSlice content, reader.Next(clock));
        report.bytes_read += content.size();
        ++report.files_read;
        batch.push_back(content.ToBytes());  // on_batch takes owned buffers
        if (batch.size() == options_.minibatch) DIESEL_RETURN_IF_ERROR(deliver());
      }
      DIESEL_RETURN_IF_ERROR(deliver());
      node_end[node] = std::max(node_end[node], clock.now());
    }
  }

  Nanos slowest = *std::max_element(node_end.begin(), node_end.end());
  Nanos fastest = *std::min_element(node_end.begin(), node_end.end());
  report.epoch_seconds = ToSeconds(slowest - task_time_);
  report.slowest_node_seconds = report.epoch_seconds;
  report.fastest_node_seconds = ToSeconds(fastest - task_time_);
  task_time_ = slowest;
  return report;
}

}  // namespace diesel::dlt
