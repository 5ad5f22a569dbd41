// Parameterized end-to-end property: for any (file count, size profile,
// chunk target), every file written through libDIESEL reads back bit-exact
// through every read path (server executor, task cache, chunk-wise reader),
// and global invariants hold (dataset accounting, snapshot completeness,
// chunk ordering).
#include <gtest/gtest.h>

#include <tuple>

#include "cache/registry.h"
#include "cache/task_cache.h"
#include "core/deployment.h"
#include "dlt/dataset_gen.h"
#include "shuffle/group_reader.h"
#include "shuffle/shuffle.h"

namespace diesel {
namespace {

struct Param {
  size_t num_files;
  uint64_t mean_bytes;
  bool fixed_size;
  uint64_t chunk_target;
};

class RoundTripParamTest : public ::testing::TestWithParam<Param> {};

TEST_P(RoundTripParamTest, EveryPathReturnsExactContent) {
  const Param& p = GetParam();
  dlt::DatasetSpec spec;
  spec.name = "prop";
  spec.num_classes = 5;
  spec.files_per_class = p.num_files / 5;
  spec.mean_file_bytes = p.mean_bytes;
  spec.fixed_size = p.fixed_size;

  core::DeploymentOptions opts;
  opts.num_client_nodes = 2;
  core::Deployment dep(opts);
  auto writer = dep.MakeClient(0, 0, spec.name, p.chunk_target);
  ASSERT_TRUE(dlt::ForEachFile(spec, [&](const dlt::GeneratedFile& f) {
                return writer->Put(f.path, f.content);
              }).ok());
  ASSERT_TRUE(writer->Flush().ok());

  // Invariant: dataset record accounts for every file.
  sim::VirtualClock clock;
  auto dm = dep.server(0).GetDatasetMeta(clock, 0, spec.name);
  ASSERT_TRUE(dm.ok());
  EXPECT_EQ(dm->num_files, spec.total_files());
  EXPECT_EQ(dm->num_chunks, writer->stats().chunks_flushed);

  // Invariant: snapshot covers everything; chunks in write order.
  auto snap = dep.server(0).BuildSnapshot(clock, 0, spec.name);
  ASSERT_TRUE(snap.ok());
  EXPECT_EQ(snap->num_files(), spec.total_files());
  for (size_t i = 1; i < snap->chunks().size(); ++i) {
    EXPECT_LT(snap->chunks()[i - 1], snap->chunks()[i]);
  }

  // Path 1: server request executor (batched).
  std::vector<std::string> paths;
  for (size_t i = 0; i < spec.total_files(); ++i) {
    paths.push_back(dlt::FilePath(spec, i));
  }
  auto batch = dep.server(0).ReadFiles(clock, 1, spec.name, paths);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  for (size_t i = 0; i < paths.size(); ++i) {
    ASSERT_TRUE(dlt::VerifyContent(spec, i, (*batch)[i]))
        << "executor path, file " << i;
  }

  // Path 2: task-grained cache.
  cache::TaskRegistry registry;
  auto c0 = dep.MakeClient(0, 1, spec.name);
  auto c1 = dep.MakeClient(1, 1, spec.name);
  registry.Register(c0->endpoint());
  registry.Register(c1->endpoint());
  cache::TaskCache cache(dep.fabric(), dep.server(0), *snap, registry, {});
  for (size_t i = 0; i < spec.total_files(); ++i) {
    const core::FileMeta* fm = snap->Lookup(paths[i]);
    ASSERT_NE(fm, nullptr);
    auto content = cache.GetFile(clock, (i % 2 ? c0 : c1)->endpoint(), *fm);
    ASSERT_TRUE(content.ok());
    ASSERT_TRUE(dlt::VerifyContent(spec, i, content->view()))
        << "cache path, file " << i;
  }

  // Path 3: chunk-wise shuffled group reader covers each file exactly once.
  Rng rng(p.num_files ^ p.chunk_target);
  shuffle::GroupWindowReader reader(dep.server(0), *snap, 1);
  reader.StartEpoch(shuffle::ChunkWiseShuffle(*snap, {.group_size = 3}, rng));
  std::vector<int> seen(spec.total_files(), 0);
  while (!reader.Done()) {
    uint32_t idx = reader.PeekIndex().value();
    auto content = reader.Next(clock);
    ASSERT_TRUE(content.ok());
    const core::FileMeta& fm = snap->files()[idx];
    // Map back to generator index via path.
    for (size_t i = 0; i < paths.size(); ++i) {
      if (paths[i] == fm.full_name) {
        ASSERT_TRUE(dlt::VerifyContent(spec, i, content->view()));
        ++seen[i];
        break;
      }
    }
  }
  for (size_t i = 0; i < seen.size(); ++i) {
    EXPECT_EQ(seen[i], 1) << "file " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, RoundTripParamTest,
    ::testing::Values(
        Param{10, 100, true, 4096},          // tiny files, tiny chunks
        Param{50, 1000, false, 8 * 1024},    // jittered sizes
        Param{200, 500, false, 16 * 1024},   // many files
        Param{25, 40000, true, 64 * 1024},   // files ~ chunk-size
        Param{15, 100000, false, 32 * 1024}, // files LARGER than chunks
        Param{60, 3000, true, 1 << 20}),     // all files in one chunk
    [](const auto& info) {
      const Param& p = info.param;
      return "files" + std::to_string(p.num_files) + "_mean" +
             std::to_string(p.mean_bytes) + "_chunk" +
             std::to_string(p.chunk_target);
    });

}  // namespace
}  // namespace diesel
