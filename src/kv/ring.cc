#include "kv/ring.h"

#include <algorithm>
#include <cassert>

namespace diesel::kv {
namespace {

// 2^16 buckets of 4 bytes cover 32k ring points at the intended density;
// a larger ring only steps over a few more points per lookup.
constexpr int kMaxBucketBits = 16;

bool PointLess(const std::pair<uint64_t, uint32_t>& a,
               const std::pair<uint64_t, uint32_t>& b) {
  return a.first < b.first;
}

}  // namespace

void HashRing::AddMember(uint32_t member) {
  if (HasMember(member)) return;
  members_.push_back(member);
  // Collect the member's points, then sort them in once.
  const auto old_end = static_cast<std::ptrdiff_t>(ring_.size());
  for (uint32_t v = 0; v < vnodes_; ++v) {
    uint64_t point = Mix64((uint64_t{member} << 32) | v);
    // Collisions (with the ring or this member's earlier points) are
    // astronomically unlikely but keep the ring deterministic by skipping
    // occupied points.
    while (std::binary_search(ring_.begin(), ring_.begin() + old_end,
                              Point{point, 0}, PointLess) ||
           std::any_of(ring_.begin() + old_end, ring_.end(),
                       [point](const Point& q) { return q.first == point; })) {
      point = Mix64(point);
    }
    ring_.emplace_back(point, member);
  }
  std::sort(ring_.begin() + old_end, ring_.end(), PointLess);
  std::inplace_merge(ring_.begin(), ring_.begin() + old_end, ring_.end(),
                     PointLess);
  RebuildBuckets();
}

void HashRing::RemoveMember(uint32_t member) {
  auto it = std::find(members_.begin(), members_.end(), member);
  if (it == members_.end()) return;
  members_.erase(it);
  std::erase_if(ring_, [member](const Point& p) { return p.second == member; });
  RebuildBuckets();
}

bool HashRing::HasMember(uint32_t member) const {
  return std::find(members_.begin(), members_.end(), member) != members_.end();
}

void HashRing::RebuildBuckets() {
  int bits = 1;
  while (bits < kMaxBucketBits && (size_t{1} << bits) < 2 * ring_.size()) {
    ++bits;
  }
  bucket_shift_ = 64 - bits;
  bucket_.assign(size_t{1} << bits, 0);
  uint32_t i = 0;
  for (size_t b = 0; b < bucket_.size(); ++b) {
    const uint64_t start = uint64_t{b} << bucket_shift_;
    while (i < ring_.size() && ring_[i].first < start) ++i;
    bucket_[b] = i;
  }
}

uint32_t HashRing::OwnerOfHash(uint64_t h) const {
  assert(!ring_.empty() && "ring has no members");
  size_t i = bucket_[h >> bucket_shift_];
  while (i < ring_.size() && ring_[i].first < h) ++i;
  return i < ring_.size() ? ring_[i].second : ring_.front().second;
}

double HashRing::OwnedFraction(uint32_t member) const {
  if (ring_.empty()) return 0.0;
  // Walk arcs: each point owns the arc ending at it (from previous point).
  unsigned __int128 owned = 0;
  uint64_t prev = ring_.back().first;  // wraps around
  bool first = true;
  for (const auto& [point, m] : ring_) {
    uint64_t arc = first ? (point + (~prev) + 1)  // wrap arc length
                         : point - prev;
    if (m == member) owned += arc;
    prev = point;
    first = false;
  }
  return static_cast<double>(owned) / static_cast<double>(~uint64_t{0});
}

}  // namespace diesel::kv
