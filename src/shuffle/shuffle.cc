#include "shuffle/shuffle.h"

#include <algorithm>
#include <cassert>
#include <numeric>

namespace diesel::shuffle {

std::vector<uint32_t> ShuffleDataset(const core::MetadataSnapshot& snapshot,
                                     Rng& rng) {
  std::vector<uint32_t> order(snapshot.num_files());
  std::iota(order.begin(), order.end(), 0u);
  rng.Shuffle(order);
  return order;
}

size_t ShufflePlan::GroupOf(size_t pos) const {
  assert(!group_begin.empty() && pos < group_begin.back());
  // group_begin is sorted; find the last boundary <= pos.
  auto it = std::upper_bound(group_begin.begin(), group_begin.end(), pos);
  return static_cast<size_t>(it - group_begin.begin()) - 1;
}

ShufflePlan ChunkWiseShuffle(const core::MetadataSnapshot& snapshot,
                             const ChunkShuffleOptions& options, Rng& rng) {
  assert(options.group_size > 0);
  ShufflePlan plan;
  const size_t num_chunks = snapshot.chunks().size();

  // Step 1: shuffle chunk IDs.
  std::vector<uint32_t> chunk_order(num_chunks);
  std::iota(chunk_order.begin(), chunk_order.end(), 0u);
  rng.Shuffle(chunk_order);

  // Steps 2+3: split into groups; shuffle the files inside each group.
  plan.group_begin.push_back(0);
  for (size_t g = 0; g * options.group_size < num_chunks; ++g) {
    size_t lo = g * options.group_size;
    size_t hi = std::min(lo + options.group_size, num_chunks);
    std::vector<uint32_t> chunks(chunk_order.begin() + lo,
                                 chunk_order.begin() + hi);
    std::vector<uint32_t> files;
    for (uint32_t ci : chunks) {
      std::span<const uint32_t> in_chunk = snapshot.FilesOfChunk(ci);
      files.insert(files.end(), in_chunk.begin(), in_chunk.end());
    }
    rng.Shuffle(files);
    plan.file_order.insert(plan.file_order.end(), files.begin(), files.end());
    plan.group_begin.push_back(plan.file_order.size());
    plan.group_chunks.push_back(std::move(chunks));
  }
  return plan;
}

ShufflePlan PartitionPlan(const ShufflePlan& plan, size_t part,
                          size_t num_parts) {
  assert(num_parts > 0 && part < num_parts);
  ShufflePlan out;
  out.group_begin.push_back(0);
  for (size_t g = 0; g < plan.num_groups(); ++g) {
    if (g % num_parts != part) continue;
    out.file_order.insert(out.file_order.end(),
                          plan.file_order.begin() +
                              static_cast<ptrdiff_t>(plan.group_begin[g]),
                          plan.file_order.begin() +
                              static_cast<ptrdiff_t>(plan.group_begin[g + 1]));
    out.group_begin.push_back(out.file_order.size());
    out.group_chunks.push_back(plan.group_chunks[g]);
  }
  return out;
}

double AdjacentSameChunkFraction(const core::MetadataSnapshot& snapshot,
                                 const std::vector<uint32_t>& order) {
  if (order.size() < 2) return 0.0;
  size_t same = 0;
  for (size_t i = 1; i < order.size(); ++i) {
    const auto& a = snapshot.files()[order[i - 1]];
    const auto& b = snapshot.files()[order[i]];
    if (a.chunk == b.chunk) ++same;
  }
  return static_cast<double>(same) / static_cast<double>(order.size() - 1);
}

}  // namespace diesel::shuffle
