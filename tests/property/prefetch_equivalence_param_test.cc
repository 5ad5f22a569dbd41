// Property: the GroupWindowReader's next-group prefetch is an overlap-only
// optimization — for any seed and group size it must return byte-identical
// file sequences with prefetch on and off, and the overlapped epoch can
// never take longer (in virtual time) than the serialized one.
#include <gtest/gtest.h>

#include "core/deployment.h"
#include "dlt/dataset_gen.h"
#include "shuffle/group_reader.h"
#include "shuffle/shuffle.h"

namespace diesel::shuffle {
namespace {

struct Case {
  uint64_t seed;
  size_t group_size;
};

class PrefetchEquivalenceTest : public ::testing::TestWithParam<Case> {};

TEST_P(PrefetchEquivalenceTest, PrefetchOnOffByteIdenticalAndNoSlower) {
  const Case c = GetParam();
  core::DeploymentOptions dopts;
  dopts.num_client_nodes = 2;
  core::Deployment dep(dopts);
  dlt::DatasetSpec spec;
  spec.name = "pfe";
  spec.num_classes = 2;
  spec.files_per_class = 36;
  spec.mean_file_bytes = 3072;
  auto writer = dep.MakeClient(0, 0, spec.name, 12 * 1024);
  ASSERT_TRUE(dlt::ForEachFile(spec, [&](const dlt::GeneratedFile& f) {
                return writer->Put(f.path, f.content);
              }).ok());
  ASSERT_TRUE(writer->Flush().ok());
  auto client = dep.MakeClient(0, 1, spec.name);
  ASSERT_TRUE(client->FetchSnapshot().ok());
  const core::MetadataSnapshot& snap = *client->snapshot();

  // Same plan for both arms.
  Rng rng(c.seed);
  ShufflePlan plan =
      ChunkWiseShuffle(snap, {.group_size = c.group_size}, rng);

  auto run = [&](bool prefetch) {
    dep.ResetDevices();  // identical device state for both arms
    GroupWindowReader reader(dep.server(0), snap, 0);
    reader.set_prefetch_next_group(prefetch);
    reader.StartEpoch(plan);
    sim::VirtualClock clock;
    std::vector<Bytes> files;
    while (!reader.Done()) {
      auto data = reader.Next(clock);
      EXPECT_TRUE(data.ok()) << data.status().ToString();
      files.push_back(data->ToBytes());
    }
    return std::make_pair(std::move(files), clock.now());
  };

  auto [serial_files, serial_end] = run(false);
  auto [overlap_files, overlap_end] = run(true);

  ASSERT_EQ(serial_files.size(), overlap_files.size());
  ASSERT_EQ(serial_files.size(), plan.file_order.size());
  for (size_t i = 0; i < serial_files.size(); ++i) {
    EXPECT_EQ(serial_files[i], overlap_files[i]) << "file " << i;
  }
  // Overlap hides chunk-fetch latency behind consumption; it can never
  // serialize extra work onto the epoch.
  EXPECT_LE(overlap_end, serial_end);
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, PrefetchEquivalenceTest,
    ::testing::Values(Case{1, 2}, Case{1, 4}, Case{7, 2}, Case{7, 8},
                      Case{42, 4}, Case{42, 8}),
    [](const ::testing::TestParamInfo<Case>& info) {
      return "seed" + std::to_string(info.param.seed) + "_group" +
             std::to_string(info.param.group_size);
    });

}  // namespace
}  // namespace diesel::shuffle
