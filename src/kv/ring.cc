#include "kv/ring.h"

#include <algorithm>
#include <cassert>

namespace diesel::kv {

std::vector<HashRing::Point>::const_iterator HashRing::LowerBound(
    uint64_t h) const {
  return std::lower_bound(
      ring_.begin(), ring_.end(), h,
      [](const Point& p, uint64_t value) { return p.first < value; });
}

void HashRing::AddMember(uint32_t member) {
  if (HasMember(member)) return;
  members_.push_back(member);
  for (uint32_t v = 0; v < vnodes_; ++v) {
    uint64_t point = Mix64((uint64_t{member} << 32) | v);
    // Collisions across members are astronomically unlikely but keep the
    // ring deterministic by skipping occupied points.
    auto it = LowerBound(point);
    while (it != ring_.end() && it->first == point) {
      point = Mix64(point);
      it = LowerBound(point);
    }
    ring_.insert(it, {point, member});
  }
}

void HashRing::RemoveMember(uint32_t member) {
  auto it = std::find(members_.begin(), members_.end(), member);
  if (it == members_.end()) return;
  members_.erase(it);
  std::erase_if(ring_, [member](const Point& p) { return p.second == member; });
}

bool HashRing::HasMember(uint32_t member) const {
  return std::find(members_.begin(), members_.end(), member) != members_.end();
}

uint32_t HashRing::Owner(std::string_view key) const {
  // FNV-1a alone clusters similar keys (shared prefixes differ mostly in low
  // bits); the Mix64 finalizer spreads them across the whole ring.
  return OwnerOfHash(Mix64(Fnv1a64(key)));
}

uint32_t HashRing::OwnerOfHash(uint64_t h) const {
  assert(!ring_.empty() && "ring has no members");
  auto it = LowerBound(h);
  if (it == ring_.end()) it = ring_.begin();
  return it->second;
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
