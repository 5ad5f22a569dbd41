// FileSlice lifetime: slices returned by the zero-copy read path hold a
// reference on the chunk blob, so they must stay byte-stable after the
// cache evicts, drops, or migrates the chunk they view. Run under
// ASan/TSan this is the use-after-free proof for the shared-buffer design.
#include <gtest/gtest.h>

#include "cache/task_cache.h"
#include "core/deployment.h"
#include "dlt/dataset_gen.h"
#include "membership/membership.h"

namespace diesel::cache {
namespace {

class SliceLifetimeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    core::DeploymentOptions dopts;
    dopts.num_client_nodes = 4;
    deployment_ = std::make_unique<core::Deployment>(dopts);
    spec_.name = "sl";
    spec_.num_classes = 2;
    spec_.files_per_class = 40;
    spec_.mean_file_bytes = 2048;
    auto writer = deployment_->MakeClient(0, 0, spec_.name, 16 * 1024);
    ASSERT_TRUE(dlt::ForEachFile(spec_, [&](const dlt::GeneratedFile& f) {
                  return writer->Put(f.path, f.content);
                }).ok());
    ASSERT_TRUE(writer->Flush().ok());
    for (uint32_t n = 0; n < 4; ++n) {
      clients_.push_back(deployment_->MakeClient(n, 1, spec_.name));
      registry_.Register(clients_.back()->endpoint());
    }
    ASSERT_TRUE(clients_[0]->FetchSnapshot().ok());
    snapshot_ = clients_[0]->snapshot();
  }

  const core::FileMeta& File(size_t index) {
    const core::FileMeta* m = snapshot_->Lookup(dlt::FilePath(spec_, index));
    EXPECT_NE(m, nullptr);
    return *m;
  }

  std::unique_ptr<core::Deployment> deployment_;
  dlt::DatasetSpec spec_;
  std::vector<std::unique_ptr<core::DieselClient>> clients_;
  TaskRegistry registry_;
  const core::MetadataSnapshot* snapshot_ = nullptr;
};

TEST_F(SliceLifetimeTest, SlicesSurviveCapacityEviction) {
  TaskCacheOptions opts;
  opts.per_node_capacity_bytes = 40 * 1024;  // forces eviction churn
  TaskCache cache(deployment_->fabric(), deployment_->server(0), *snapshot_,
                  registry_, opts);
  sim::VirtualClock clock;
  // Hold slices of the first 16 files while the rest of the epoch churns
  // the cache past its capacity many times over.
  std::vector<core::FileSlice> held;
  for (size_t i = 0; i < 16; ++i) {
    auto s = cache.GetFile(clock, clients_[0]->endpoint(), File(i));
    ASSERT_TRUE(s.ok()) << s.status().ToString();
    held.push_back(std::move(s.value()));
  }
  for (size_t i = 16; i < spec_.total_files(); ++i) {
    ASSERT_TRUE(
        cache.GetFile(clock, clients_[0]->endpoint(), File(i)).ok());
  }
  ASSERT_GT(cache.stats().evictions, 0u);
  for (size_t i = 0; i < held.size(); ++i) {
    EXPECT_TRUE(dlt::VerifyContent(spec_, i, held[i].ToBytes()))
        << "file " << i;
  }
}

TEST_F(SliceLifetimeTest, SlicesSurviveDropAllAndNodeDrop) {
  TaskCache cache(deployment_->fabric(), deployment_->server(0), *snapshot_,
                  registry_, {});
  sim::VirtualClock clock;
  std::vector<core::FileSlice> held;
  for (size_t i = 0; i < 24; ++i) {
    auto s = cache.GetFile(clock, clients_[0]->endpoint(), File(i));
    ASSERT_TRUE(s.ok());
    held.push_back(std::move(s.value()));
  }
  cache.DropNode(deployment_->client_node(1));
  cache.DropAll();
  EXPECT_DOUBLE_EQ(cache.HitRatio(), 0.0);
  for (size_t i = 0; i < held.size(); ++i) {
    EXPECT_TRUE(dlt::VerifyContent(spec_, i, held[i].ToBytes()))
        << "file " << i;
  }
}

TEST_F(SliceLifetimeTest, SlicesSurviveMigration) {
  // Preload over 2 member nodes, take slices, then have 2 more nodes join:
  // consistent hashing migrates a share of resident chunks to the joiners
  // and finalizes away the source copies — held slices must not notice.
  std::vector<std::unique_ptr<core::DieselClient>> members;
  TaskRegistry reg;
  for (uint32_t n = 0; n < 2; ++n) {
    members.push_back(deployment_->MakeClient(n, 2, spec_.name));
    reg.Register(members.back()->endpoint());
  }
  ASSERT_TRUE(members[0]->FetchSnapshot().ok());
  const core::MetadataSnapshot& snap = *members[0]->snapshot();
  TaskCacheOptions copts;
  copts.policy = CachePolicy::kOneshot;
  TaskCache cache(deployment_->fabric(), deployment_->server(0), snap, reg,
                  copts);
  membership::MembershipTable table;
  std::vector<sim::NodeId> initial{deployment_->client_node(0),
                                   deployment_->client_node(1)};
  table.Bootstrap(initial, 0);
  cache.AttachMembership(table);
  ASSERT_TRUE(cache.Preload(0).ok());

  sim::VirtualClock clock;
  std::vector<core::FileSlice> held;
  for (size_t i = 0; i < spec_.total_files(); ++i) {
    auto s = cache.GetFile(clock, members[0]->endpoint(), File(i));
    ASSERT_TRUE(s.ok()) << s.status().ToString();
    held.push_back(std::move(s.value()));
  }

  table.Join(deployment_->client_node(2), clock.now());
  table.Join(deployment_->client_node(3), clock.now());
  ASSERT_GT(cache.stats().migrated_chunks, 0u);

  // Read everything again past the transition so every in-flight move is
  // finalized (source copies erased) while the slices are still alive.
  sim::VirtualClock sweep(cache.last_transition_end() + Millis(1));
  for (size_t i = 0; i < spec_.total_files(); ++i) {
    auto r = cache.GetFile(sweep, members[0]->endpoint(), File(i));
    ASSERT_TRUE(r.ok()) << r.status().ToString();
  }
  EXPECT_EQ(cache.migrations_in_flight(), 0u);

  for (size_t i = 0; i < held.size(); ++i) {
    EXPECT_TRUE(dlt::VerifyContent(spec_, i, held[i].ToBytes()))
        << "file " << i;
  }
}

}  // namespace
}  // namespace diesel::cache
