#include "kv/shard.h"

#include <algorithm>
#include <cstring>

#include "common/bytes.h"

namespace diesel::kv {
namespace {

// Arena blocks double with the arena, from 4 KiB up to 1 MiB; a larger
// entry gets a block of its own size.
constexpr size_t kMinBlockBytes = 4 << 10;
constexpr size_t kMaxBlockBytes = 1 << 20;

void CopyTo(char* dst, std::string_view src) {
  if (!src.empty()) std::memcpy(dst, src.data(), src.size());
}

}  // namespace

void Shard::Fail() {
  std::lock_guard<std::mutex> lock(mutex_);
  up_ = false;
  Clear();
}

void Shard::Clear() {
  // Move-assign empty containers: unlike clear(), that frees the memory.
  blocks_ = decltype(blocks_)();
  cursor_ = nullptr;
  room_ = arena_bytes_ = live_bytes_ = garbage_bytes_ = dead_entries_ = 0;
  entries_ = decltype(entries_)();
  order_ = decltype(order_)();
  sorted_ = 0;
  index_ = decltype(index_)();
}

size_t Shard::StoredBytes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return arena_bytes_ + entries_.capacity() * sizeof(Entry) +
         order_.capacity() * sizeof(uint32_t);
}

char* Shard::Allocate(size_t n) {
  if (n > room_) {
    const size_t size =
        std::max(n, std::clamp(arena_bytes_, kMinBlockBytes, kMaxBlockBytes));
    blocks_.push_back(std::make_unique_for_overwrite<char[]>(size));
    arena_bytes_ += size;
    cursor_ = blocks_.back().get();
    room_ = size;
  }
  char* p = cursor_;
  cursor_ += n;
  room_ -= n;
  return p;
}

void Shard::PutLocked(HashedKey key, std::string_view value) {
  if (uint32_t* id = index_.Find(key)) {
    Entry& e = entries_[*id];
    live_bytes_ = live_bytes_ - e.value_len + value.size();
    if (value.size() <= e.value_len) {
      garbage_bytes_ += e.value_len - value.size();
      CopyTo(e.value_data, value);
    } else {
      garbage_bytes_ += e.value_len;
      char* p = Allocate(value.size());
      CopyTo(p, value);
      e.value_data = p;
    }
    e.value_len = static_cast<uint32_t>(value.size());
    return;
  }
  char* p = Allocate(key.key.size() + value.size());
  CopyTo(p, key.key);
  CopyTo(p + key.key.size(), value);
  const auto id = static_cast<uint32_t>(entries_.size());
  entries_.push_back({p, p + key.key.size(),
                      static_cast<uint32_t>(key.key.size()),
                      static_cast<uint32_t>(value.size())});
  order_.push_back(id);
  index_.Emplace(HashedKey(entries_.back().key(), key.hash), id);
  live_bytes_ += key.key.size() + value.size();
}

Status Shard::Put(HashedKey key, std::string_view value) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!up_) return Status::Unavailable("shard down");
  PutLocked(key, value);
  MaybeCompact();
  return Status::Ok();
}

Status Shard::PutBatch(const WriteBatch& batch,
                       std::span<const uint32_t> entries) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!up_) return Status::Unavailable("shard down");
  for (uint32_t i : entries) PutLocked(batch.key(i), batch.value(i));
  MaybeCompact();
  return Status::Ok();
}

Result<std::string> Shard::Get(HashedKey key) const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!up_) return Status::Unavailable("shard down");
  const uint32_t* id = index_.Find(key);
  if (id == nullptr) {
    return Status::NotFound("key: " + std::string(key.key));
  }
  return std::string(entries_[*id].value());
}

Status Shard::Delete(HashedKey key) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!up_) return Status::Unavailable("shard down");
  const uint32_t* id = index_.Find(key);
  if (id == nullptr) {
    return Status::NotFound("key: " + std::string(key.key));
  }
  Entry& e = entries_[*id];
  const size_t bytes = e.key_len + e.value_len;
  live_bytes_ -= bytes;
  garbage_bytes_ += bytes;
  e.value_len = Entry::kDead;  // the key bytes stay for the order's search
  ++dead_entries_;
  index_.Erase(key);
  MaybeCompact();
  return Status::Ok();
}

void Shard::MergeOrder() const {
  if (sorted_ == order_.size()) return;
  // Sort the new ids on their keys' first 32 bytes, loaded once as four
  // big-endian words (zero-padded), and read a key's bytes past those only
  // on a tie. Metadata keys differ within their first 32 bytes unless they
  // share a directory, so most comparisons never touch the arena.
  struct Head {
    uint64_t word[4];
    uint32_t len;
    uint32_t id;
  };
  const auto mid = order_.begin() + static_cast<std::ptrdiff_t>(sorted_);
  std::vector<Head> heads;
  heads.reserve(static_cast<size_t>(order_.end() - mid));
  for (auto it = mid; it != order_.end(); ++it) {
    const std::string_view key = entries_[*it].key();
    uint8_t bytes[32] = {};
    CopyTo(reinterpret_cast<char*>(bytes), key.substr(0, sizeof(bytes)));
    Head& h = heads.emplace_back();
    for (int w = 0; w < 4; ++w) {
      h.word[w] = __builtin_bswap64(LoadLE<uint64_t>(bytes + 8 * w));
    }
    h.len = static_cast<uint32_t>(key.size());
    h.id = *it;
  }
  std::sort(heads.begin(), heads.end(), [this](const Head& a, const Head& b) {
    for (int w = 0; w < 4; ++w) {
      if (a.word[w] != b.word[w]) return a.word[w] < b.word[w];
    }
    // Equal padded heads: a key of at most 32 bytes is a prefix of the
    // other one.
    if (a.len <= 32 || b.len <= 32) return a.len < b.len;
    return entries_[a.id].key().substr(32) < entries_[b.id].key().substr(32);
  });
  auto out = mid;
  for (const Head& h : heads) *out++ = h.id;
  std::inplace_merge(order_.begin(), mid, order_.end(),
                     [this](uint32_t a, uint32_t b) {
                       return entries_[a].key() < entries_[b].key();
                     });
  sorted_ = order_.size();
}

std::pair<Shard::OrderIt, Shard::OrderIt> Shard::PrefixRange(
    std::string_view prefix) const {
  MergeOrder();
  auto key_less = [this](uint32_t id, std::string_view k) {
    return entries_[id].key() < k;
  };
  const OrderIt begin =
      std::lower_bound(order_.cbegin(), order_.cend(), prefix, key_less);
  // The range ends at the first key past every key with the prefix: the
  // prefix with its trailing 0xFF bytes dropped and its last byte bumped
  // (no such key when the prefix is empty or all 0xFF).
  std::string_view stem = prefix;
  while (!stem.empty() && static_cast<unsigned char>(stem.back()) == 0xFF) {
    stem.remove_suffix(1);
  }
  if (stem.empty()) return {begin, order_.cend()};
  std::string next(stem);
  next.back() = static_cast<char>(static_cast<unsigned char>(next.back()) + 1);
  return {begin, std::lower_bound(begin, order_.cend(), next, key_less)};
}

void Shard::MaybeCompact() {
  if (garbage_bytes_ > live_bytes_ || dead_entries_ > index_.size()) {
    Compact();
  }
}

void Shard::Compact() {
  MergeOrder();
  const size_t live = index_.size();
  std::vector<std::unique_ptr<char[]>> old_blocks = std::move(blocks_);
  std::vector<Entry> old_entries = std::move(entries_);
  std::vector<uint32_t> old_order = std::move(order_);
  Clear();
  entries_.reserve(live);
  order_.reserve(live);
  index_.reserve(live);
  // Re-put the live entries in key order. This is the one place a shard
  // hashes a key itself: the index is rebuilt over the new arena.
  for (uint32_t old_id : old_order) {
    const Entry& e = old_entries[old_id];
    if (!e.dead()) PutLocked(HashedKey(e.key(), KeyHash(e.key())), e.value());
  }
  sorted_ = order_.size();
}

}  // namespace diesel::kv
