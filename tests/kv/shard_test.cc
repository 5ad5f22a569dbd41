#include "kv/shard.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "common/rng.h"
#include "sim/calibration.h"

namespace diesel::kv {
namespace {

Shard MakeShard() { return Shard(0, sim::RedisShardSpec("t")); }

/// The visiting scan, collected into owned entries.
Result<std::vector<ScanEntry>> Collect(const Shard& s, std::string_view prefix,
                                       size_t limit = 0) {
  std::vector<ScanEntry> out;
  DIESEL_RETURN_IF_ERROR(
      s.Scan(prefix, limit, [&](std::string_view k, std::string_view v) {
        out.push_back({std::string(k), std::string(v)});
      }));
  return out;
}

TEST(ShardTest, PutGetDelete) {
  Shard s = MakeShard();
  EXPECT_TRUE(s.Put("k", "v").ok());
  EXPECT_EQ(s.Get("k").value(), "v");
  EXPECT_TRUE(s.Delete("k").ok());
  EXPECT_TRUE(s.Get("k").status().IsNotFound());
}

TEST(ShardTest, ScanPrefixOrderedAndBounded) {
  Shard s = MakeShard();
  ASSERT_TRUE(s.Put("a/2", "2").ok());
  ASSERT_TRUE(s.Put("a/1", "1").ok());
  ASSERT_TRUE(s.Put("a/3", "3").ok());
  ASSERT_TRUE(s.Put("b/1", "x").ok());
  auto scan = Collect(s, "a/");
  ASSERT_TRUE(scan.ok());
  ASSERT_EQ(scan->size(), 3u);
  EXPECT_EQ((*scan)[0].key, "a/1");
  EXPECT_EQ((*scan)[2].key, "a/3");

  auto limited = Collect(s, "a/", 2);
  ASSERT_TRUE(limited.ok());
  EXPECT_EQ(limited->size(), 2u);
}

TEST(ShardTest, ScanPrefixEndingInFFStopsAtItsRange) {
  // The scan ends at the prefix's successor: "a\xff" -> "b", "\xff" -> end.
  Shard s = MakeShard();
  for (const char* k : {"a\xfe", "a\xff", "a\xff\x01", "a\xff\xff", "b",
                        "\xff", "\xff\xff"}) {
    ASSERT_TRUE(s.Put(k, "v").ok());
  }
  auto a = Collect(s, "a\xff");
  ASSERT_TRUE(a.ok());
  ASSERT_EQ(a->size(), 3u);
  EXPECT_EQ((*a)[2].key, "a\xff\xff");
  auto ff = Collect(s, "\xff");
  ASSERT_TRUE(ff.ok());
  EXPECT_EQ(ff->size(), 2u);
}

TEST(ShardTest, ScanEmptyPrefixReturnsAll) {
  Shard s = MakeShard();
  ASSERT_TRUE(s.Put("x", "1").ok());
  ASSERT_TRUE(s.Put("y", "2").ok());
  auto scan = Collect(s, "");
  ASSERT_TRUE(scan.ok());
  EXPECT_EQ(scan->size(), 2u);
}

TEST(ShardTest, FailClearsDataAndBlocksOps) {
  Shard s = MakeShard();
  ASSERT_TRUE(s.Put("k", "v").ok());
  s.Fail();
  EXPECT_FALSE(s.up());
  EXPECT_TRUE(s.Get("k").status().IsUnavailable());
  EXPECT_TRUE(s.Put("k", "v").IsUnavailable());
  EXPECT_TRUE(Collect(s, "").status().IsUnavailable());
  s.Restart();
  EXPECT_TRUE(s.up());
  EXPECT_EQ(s.NumKeys(), 0u);  // in-memory store: contents lost
  EXPECT_TRUE(s.Get("k").status().IsNotFound());
}

TEST(ShardTest, PutBatchOnDownShardLeavesBatchIntact) {
  Shard s = MakeShard();
  ASSERT_TRUE(s.Put("k1", "old").ok());
  const std::vector<std::pair<std::string, std::string>> copy{
      {"k1", "new"}, {"k2", std::string(100, 'v')}, {"k3", ""}};
  WriteBatch batch;
  for (const auto& [k, v] : copy) batch.Put(k, v);
  const std::vector<uint32_t> all{0, 1, 2};
  s.Fail();
  EXPECT_TRUE(s.PutBatch(batch, all).IsUnavailable());
  // Nothing moved out: the caller can retry.
  ASSERT_EQ(batch.size(), copy.size());
  for (uint32_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(batch.key(i).key, copy[i].first);
    EXPECT_EQ(batch.value(i), copy[i].second);
  }

  s.Restart();
  ASSERT_TRUE(s.PutBatch(batch, all).ok());
  EXPECT_EQ(s.NumKeys(), 3u);
  for (const auto& [k, v] : copy) EXPECT_EQ(s.Get(k).value(), v) << k;
}

TEST(ShardTest, NumKeysTracksMutations) {
  Shard s = MakeShard();
  EXPECT_EQ(s.NumKeys(), 0u);
  ASSERT_TRUE(s.Put("a", "1").ok());
  ASSERT_TRUE(s.Put("a", "2").ok());
  ASSERT_TRUE(s.Put("b", "1").ok());
  EXPECT_EQ(s.NumKeys(), 2u);
  ASSERT_TRUE(s.Delete("a").ok());
  EXPECT_EQ(s.NumKeys(), 1u);
}

// The shard as it was before flat storage: an ordered std::map, a down flag,
// and a Fail that drops everything. Kept as the oracle.
class ReferenceShard {
 public:
  Status Put(const std::string& key, const std::string& value) {
    if (!up_) return Status::Unavailable("shard down");
    data_[key] = value;
    return Status::Ok();
  }
  Result<std::string> Get(const std::string& key) const {
    if (!up_) return Status::Unavailable("shard down");
    auto it = data_.find(key);
    if (it == data_.end()) return Status::NotFound("key: " + key);
    return it->second;
  }
  Status Delete(const std::string& key) {
    if (!up_) return Status::Unavailable("shard down");
    return data_.erase(key) > 0 ? Status::Ok() : Status::NotFound("key");
  }
  Result<std::vector<ScanEntry>> Scan(const std::string& prefix,
                                      size_t limit) const {
    if (!up_) return Status::Unavailable("shard down");
    std::vector<ScanEntry> out;
    for (auto it = data_.lower_bound(prefix);
         it != data_.end() && it->first.compare(0, prefix.size(), prefix) == 0;
         ++it) {
      out.push_back({it->first, it->second});
      if (out.size() == limit) break;
    }
    return out;
  }
  void Fail() {
    up_ = false;
    data_.clear();
  }
  void Restart() { up_ = true; }
  size_t NumKeys() const { return data_.size(); }
  size_t LiveBytes() const {
    size_t n = 0;
    for (const auto& [k, v] : data_) n += k.size() + v.size();
    return n;
  }

 private:
  bool up_ = true;
  std::map<std::string, std::string> data_;
};

void ExpectSameStatus(const Status& got, const Status& want,
                      const std::string& what) {
  EXPECT_EQ(got.ok(), want.ok()) << what << ": " << got.ToString();
  EXPECT_EQ(got.IsNotFound(), want.IsNotFound()) << what;
  EXPECT_EQ(got.IsUnavailable(), want.IsUnavailable()) << what;
}

// Keys over a small alphabet that includes '\0' and 0xFF, up to four bytes
// long, so that prefixes nest, overwrites and deletes hit live keys, and
// the empty key occurs. A third of them follow a 30-byte stem, so that keys
// end on both sides of the 32 bytes the shard's sort compares as words.
std::string RandomKey(Rng& rng) {
  static const char kAlphabet[] = {'a', 'b', '/', '\0', '\xff'};
  std::string tail(rng.Uniform(5), ' ');
  for (char& c : tail) c = kAlphabet[rng.Uniform(sizeof(kAlphabet))];
  if (rng.Uniform(3) != 0) return tail;
  return std::string("F/ds/0123456789abcdef/f/stem__") + tail;
}

// Mostly short values, sometimes long, so overwrites both fit in place and
// grow past their old size.
std::string RandomValue(Rng& rng) {
  size_t n = rng.Uniform(8) == 0 ? 64 + rng.Uniform(200) : rng.Uniform(16);
  std::string v(n, ' ');
  for (char& c : v) c = static_cast<char>(rng.Next());
  return v;
}

std::string RandomPrefix(Rng& rng) {
  switch (rng.Uniform(5)) {
    case 0:
      return "";
    case 1:
      return std::string(1 + rng.Uniform(2), '\xff');
    case 2:
      return std::string("a") + '\xff';
    default: {
      std::string key = RandomKey(rng);
      return key.substr(0, rng.Uniform(key.size() + 1));
    }
  }
}

// Seeded operation sequences: every step's result and the shard's key
// count and live bytes must match the std::map reference.
TEST(ShardEquivalenceTest, MatchesMapReferenceThroughSeededOps) {
  for (uint64_t seed : {1, 2, 3, 4}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    Shard shard = MakeShard();
    ReferenceShard ref;
    for (int step = 0; step < 4000; ++step) {
      const uint64_t op = rng.Uniform(100);
      if (op < 25) {
        std::string key = RandomKey(rng), value = RandomValue(rng);
        ExpectSameStatus(shard.Put(key, value), ref.Put(key, value), "put");
      } else if (op < 35) {
        // A batch that may repeat a key: the later entry wins.
        WriteBatch batch;
        std::vector<uint32_t> entries;
        Status want = Status::Ok();
        for (uint32_t i = 0, n = 1 + rng.Uniform(12); i < n; ++i) {
          std::string key = i > 0 && rng.Uniform(4) == 0
                                ? std::string(batch.key(i - 1).key)
                                : RandomKey(rng);
          std::string value = RandomValue(rng);
          batch.Put(key, value);
          entries.push_back(i);
          want = ref.Put(key, value);
        }
        ExpectSameStatus(shard.PutBatch(batch, entries), want, "put batch");
      } else if (op < 55) {
        std::string key = RandomKey(rng);
        Result<std::string> got = shard.Get(key);
        Result<std::string> want = ref.Get(key);
        ExpectSameStatus(got.status(), want.status(), "get");
        if (got.ok() && want.ok()) {
          EXPECT_EQ(*got, *want);
        }
      } else if (op < 75) {
        std::string key = RandomKey(rng);
        ExpectSameStatus(shard.Delete(key), ref.Delete(key), "delete");
      } else if (op < 97) {
        std::string prefix = RandomPrefix(rng);
        size_t limit = rng.Uniform(2) == 0 ? 0 : 1 + rng.Uniform(5);
        Result<std::vector<ScanEntry>> got = Collect(shard, prefix, limit);
        Result<std::vector<ScanEntry>> want = ref.Scan(prefix, limit);
        ExpectSameStatus(got.status(), want.status(), "scan");
        if (got.ok() && want.ok()) {
          ASSERT_EQ(got->size(), want->size()) << "step " << step;
          for (size_t i = 0; i < got->size(); ++i) {
            ASSERT_EQ((*got)[i].key, (*want)[i].key) << "step " << step;
            ASSERT_EQ((*got)[i].value, (*want)[i].value) << "step " << step;
          }
        }
      } else if (op < 98) {
        shard.Fail();
        ref.Fail();
      } else {
        shard.Restart();
        ref.Restart();
      }
      ASSERT_EQ(shard.NumKeys(), ref.NumKeys()) << "step " << step;
      ASSERT_EQ(shard.LiveBytes(), ref.LiveBytes()) << "step " << step;
    }
  }
}

// Overwrites and delete churn leave garbage in the arena; compaction keeps
// what the shard holds within a fixed multiple of its live bytes, and Fail
// frees all of it.
TEST(ShardTest, ArenaReclaimsGarbageFromOverwritesAndDeletes) {
  Shard s = MakeShard();
  Rng rng(5);
  constexpr int kKeys = 64;
  for (int i = 0; i < kKeys; ++i) {
    ASSERT_TRUE(s.Put("key" + std::to_string(i), std::string(100, 'v')).ok());
  }
  // Arena bytes are at most twice the used bytes (blocks double), and used
  // bytes at most twice the live ones (compaction); the entry table and the
  // key order add under 50 bytes per live entry of ~105 bytes.
  auto check = [&](int step) {
    ASSERT_LE(s.StoredBytes(), 8 * s.LiveBytes()) << "step " << step;
  };
  size_t peak = 0;
  for (int step = 0; step < 20000; ++step) {
    // One hot key overwritten with values of changing size...
    ASSERT_TRUE(s.Put("key0", std::string(1 + rng.Uniform(300), 'h')).ok());
    // ...and a delete then re-put of another key.
    std::string key = "key" + std::to_string(1 + rng.Uniform(kKeys - 1));
    ASSERT_TRUE(s.Delete(key).ok());
    check(step);
    ASSERT_TRUE(s.Put(key, std::string(100, 'v')).ok());
    check(step);
    peak = std::max(peak, s.StoredBytes());
  }
  EXPECT_EQ(s.NumKeys(), static_cast<size_t>(kKeys));
  // Without reclaiming, 20k overwrites and 20k re-puts would hold > 4 MB.
  EXPECT_LT(peak, size_t{64} << 10);
  auto all = Collect(s, "key");
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->size(), static_cast<size_t>(kKeys));

  s.Fail();
  EXPECT_EQ(s.StoredBytes(), 0u);
  EXPECT_EQ(s.LiveBytes(), 0u);
}

}  // namespace
}  // namespace diesel::kv
