#include "kv/ring.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "common/rng.h"

namespace diesel::kv {
namespace {

// The ring as it was before it became a sorted flat vector: a std::map from
// point to member. Kept as the ownership oracle.
class ReferenceRing {
 public:
  explicit ReferenceRing(uint32_t vnodes) : vnodes_(vnodes) {}

  void AddMember(uint32_t member) {
    if (std::find(members_.begin(), members_.end(), member) != members_.end())
      return;
    members_.push_back(member);
    for (uint32_t v = 0; v < vnodes_; ++v) {
      uint64_t point = Mix64((uint64_t{member} << 32) | v);
      while (ring_.count(point) > 0) point = Mix64(point);
      ring_.emplace(point, member);
    }
  }

  void RemoveMember(uint32_t member) {
    auto it = std::find(members_.begin(), members_.end(), member);
    if (it == members_.end()) return;
    members_.erase(it);
    std::erase_if(ring_,
                  [member](const auto& p) { return p.second == member; });
  }

  uint32_t OwnerOfHash(uint64_t h) const {
    auto it = ring_.lower_bound(h);
    if (it == ring_.end()) it = ring_.begin();
    return it->second;
  }

  uint32_t Owner(std::string_view key) const {
    return OwnerOfHash(Mix64(Fnv1a64(key)));
  }

  uint64_t FirstPoint() const { return ring_.begin()->first; }
  uint64_t LastPoint() const { return ring_.rbegin()->first; }

 private:
  uint32_t vnodes_;
  std::map<uint64_t, uint32_t> ring_;
  std::vector<uint32_t> members_;
};

// Owner() and OwnerOfHash() agree with the reference on seeded keys and raw
// hashes, including every hash past the last point (wrap-around).
void ExpectSameOwnership(const HashRing& ring, const ReferenceRing& ref,
                         Rng& rng) {
  for (int i = 0; i < 2000; ++i) {
    std::string key = "obj/" + std::to_string(rng.Next());
    ASSERT_EQ(ring.Owner(key), ref.Owner(key)) << key;
    uint64_t h = rng.Next();
    ASSERT_EQ(ring.OwnerOfHash(h), ref.OwnerOfHash(h)) << h;
  }
  for (uint64_t h : {uint64_t{0}, ref.FirstPoint(), ref.FirstPoint() + 1,
                     ref.LastPoint(), ref.LastPoint() + 1, ~uint64_t{0}}) {
    EXPECT_EQ(ring.OwnerOfHash(h), ref.OwnerOfHash(h)) << h;
  }
  if (ref.LastPoint() != ~uint64_t{0}) {
    EXPECT_EQ(ring.OwnerOfHash(ref.LastPoint() + 1),
              ring.OwnerOfHash(ref.FirstPoint()));
  }
}

TEST(HashRingEquivalenceTest, MatchesMapReferenceThroughMembershipChanges) {
  Rng rng(31);
  HashRing ring(64);
  ReferenceRing ref(64);
  for (uint32_t m = 0; m < 16; ++m) {
    ring.AddMember(m);
    ref.AddMember(m);
  }
  ExpectSameOwnership(ring, ref, rng);
  // Seeded remove/re-add/add churn, checked after every step.
  for (int step = 0; step < 24; ++step) {
    uint32_t m = static_cast<uint32_t>(rng.Uniform(24));
    if (ring.HasMember(m) && ring.NumMembers() > 1) {
      ring.RemoveMember(m);
      ref.RemoveMember(m);
    } else {
      ring.AddMember(m);
      ref.AddMember(m);
    }
    ExpectSameOwnership(ring, ref, rng);
  }
}

TEST(HashRingEquivalenceTest, SingleMemberAndWrapAround) {
  Rng rng(32);
  for (uint32_t vnodes : {1u, 3u, 64u}) {
    HashRing ring(vnodes);
    ReferenceRing ref(vnodes);
    ring.AddMember(9);
    ref.AddMember(9);
    ExpectSameOwnership(ring, ref, rng);
    ring.AddMember(4);
    ref.AddMember(4);
    ExpectSameOwnership(ring, ref, rng);
    ring.RemoveMember(9);
    ref.RemoveMember(9);
    ExpectSameOwnership(ring, ref, rng);
  }
}

TEST(HashRingTest, AddRemoveMembers) {
  HashRing ring;
  ring.AddMember(0);
  ring.AddMember(1);
  EXPECT_EQ(ring.NumMembers(), 2u);
  ring.AddMember(1);  // idempotent
  EXPECT_EQ(ring.NumMembers(), 2u);
  ring.RemoveMember(0);
  EXPECT_EQ(ring.NumMembers(), 1u);
  EXPECT_FALSE(ring.HasMember(0));
  EXPECT_TRUE(ring.HasMember(1));
}

TEST(HashRingTest, SingleMemberOwnsEverything) {
  HashRing ring;
  ring.AddMember(3);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(ring.Owner("key" + std::to_string(i)), 3u);
  }
  EXPECT_NEAR(ring.OwnedFraction(3), 1.0, 1e-9);
}

TEST(HashRingTest, OwnershipIsDeterministic) {
  HashRing a, b;
  for (uint32_t m = 0; m < 8; ++m) {
    a.AddMember(m);
    b.AddMember(m);
  }
  for (int i = 0; i < 500; ++i) {
    std::string key = "k" + std::to_string(i);
    EXPECT_EQ(a.Owner(key), b.Owner(key));
  }
}

TEST(HashRingTest, LoadIsRoughlyBalanced) {
  HashRing ring(128);
  const uint32_t kMembers = 10;
  for (uint32_t m = 0; m < kMembers; ++m) ring.AddMember(m);
  std::map<uint32_t, int> counts;
  const int kKeys = 50000;
  for (int i = 0; i < kKeys; ++i) {
    ++counts[ring.Owner("object-" + std::to_string(i))];
  }
  for (uint32_t m = 0; m < kMembers; ++m) {
    double share = static_cast<double>(counts[m]) / kKeys;
    EXPECT_GT(share, 0.05) << "member " << m;
    EXPECT_LT(share, 0.20) << "member " << m;
  }
}

TEST(HashRingTest, OwnedFractionsSumToOne) {
  HashRing ring(64);
  for (uint32_t m = 0; m < 5; ++m) ring.AddMember(m);
  double total = 0;
  for (uint32_t m = 0; m < 5; ++m) total += ring.OwnedFraction(m);
  EXPECT_NEAR(total, 1.0, 1e-6);
}

// The consistent-hashing property: removing one member only remaps the keys
// it owned; every other key keeps its owner.
TEST(HashRingTest, PropertyRemovalOnlyRemapsVictimKeys) {
  HashRing ring(64);
  for (uint32_t m = 0; m < 8; ++m) ring.AddMember(m);
  std::map<std::string, uint32_t> before;
  for (int i = 0; i < 5000; ++i) {
    std::string key = "file" + std::to_string(i);
    before[key] = ring.Owner(key);
  }
  const uint32_t kVictim = 3;
  ring.RemoveMember(kVictim);
  for (const auto& [key, owner] : before) {
    uint32_t now = ring.Owner(key);
    if (owner == kVictim) {
      EXPECT_NE(now, kVictim);
    } else {
      EXPECT_EQ(now, owner) << key;
    }
  }
}

TEST(HashRingTest, ReAddingMemberRestoresOwnership) {
  HashRing ring(64);
  for (uint32_t m = 0; m < 4; ++m) ring.AddMember(m);
  std::map<std::string, uint32_t> before;
  for (int i = 0; i < 1000; ++i) {
    std::string key = "k" + std::to_string(i);
    before[key] = ring.Owner(key);
  }
  ring.RemoveMember(2);
  ring.AddMember(2);
  for (const auto& [key, owner] : before) {
    EXPECT_EQ(ring.Owner(key), owner) << key;
  }
}

}  // namespace
}  // namespace diesel::kv
