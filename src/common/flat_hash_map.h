// Open-addressing hash map with linear probing and backward-shift deletion.
//
// Stand-in for the parallel-hashmap dependency the paper's client uses for
// the in-memory metadata snapshot (§5 "we use parallel-hashmap to replace the
// standard hashmap in the STL"). Compared to std::unordered_map it stores
// slots contiguously (no per-node allocation), which is what makes snapshot
// lookups O(1) with small constants.
//
// Requirements: Key is hashable via Hash and equality-comparable; Value is
// movable. Not thread-safe; callers synchronize externally (the snapshot is
// read-only after load, so concurrent readers need no locking).
#pragma once

#include <cassert>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

namespace diesel {

template <typename Key, typename Value, typename Hash = std::hash<Key>,
          typename Eq = std::equal_to<Key>>
class FlatHashMap {
 public:
  using value_type = std::pair<Key, Value>;

  FlatHashMap() = default;
  explicit FlatHashMap(size_t expected) { reserve(expected); }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  void reserve(size_t n) {
    size_t needed = NextPow2(n * 4 / 3 + 1);
    if (needed > slots_.size()) Rehash(needed);
  }

  void clear() {
    slots_.clear();
    size_ = 0;
  }

  /// Insert or overwrite. Returns true if a new key was inserted.
  bool InsertOrAssign(Key key, Value value) {
    Slot& s = SlotFor(key);
    const bool inserted = !s.used;
    if (inserted) {
      s.used = true;
      s.kv.first = std::move(key);
      ++size_;
    }
    s.kv.second = std::move(value);
    return inserted;
  }

  /// Insert `value` under `key` unless the key is present. Returns the
  /// stored value (valid until the next insertion) and whether it was
  /// inserted.
  std::pair<Value*, bool> Emplace(Key key, Value value) {
    Slot& s = SlotFor(key);
    if (s.used) return {&s.kv.second, false};
    s.used = true;
    s.kv.first = std::move(key);
    s.kv.second = std::move(value);
    ++size_;
    return {&s.kv.second, true};
  }

  Value* Find(const Key& key) {
    return const_cast<Value*>(std::as_const(*this).Find(key));
  }

  const Value* Find(const Key& key) const {
    if (slots_.empty()) return nullptr;
    size_t mask = slots_.size() - 1;
    size_t idx = Hash{}(key)&mask;
    for (;;) {
      const Slot& s = slots_[idx];
      if (!s.used) return nullptr;
      if (Eq{}(s.kv.first, key)) return &s.kv.second;
      idx = (idx + 1) & mask;
    }
  }

  bool Contains(const Key& key) const { return Find(key) != nullptr; }

  /// Erase with backward-shift so probe chains stay contiguous.
  bool Erase(const Key& key) {
    if (slots_.empty()) return false;
    size_t mask = slots_.size() - 1;
    size_t idx = Hash{}(key)&mask;
    for (;;) {
      Slot& s = slots_[idx];
      if (!s.used) return false;
      if (Eq{}(s.kv.first, key)) break;
      idx = (idx + 1) & mask;
    }
    // Backward shift: pull successors whose home slot precedes the hole.
    size_t hole = idx;
    size_t next = (hole + 1) & mask;
    while (slots_[next].used) {
      size_t home = Hash{}(slots_[next].kv.first) & mask;
      // Move back unless the element already sits at or after its home
      // within the cyclic range (hole, next].
      bool movable = ((next - home) & mask) >= ((next - hole) & mask);
      if (movable) {
        slots_[hole].kv = std::move(slots_[next].kv);
        hole = next;
      }
      next = (next + 1) & mask;
    }
    slots_[hole].used = false;
    slots_[hole].kv = value_type{};
    --size_;
    return true;
  }

  /// Visit every entry: fn(const Key&, Value&).
  template <typename Fn>
  void ForEach(Fn&& fn) {
    for (Slot& s : slots_) {
      if (s.used) fn(s.kv.first, s.kv.second);
    }
  }

  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const Slot& s : slots_) {
      if (s.used) fn(s.kv.first, s.kv.second);
    }
  }

 private:
  struct Slot {
    bool used = false;
    value_type kv;
  };

  static size_t NextPow2(size_t n) {
    size_t p = 16;
    while (p < n) p <<= 1;
    return p;
  }

  /// Grow if needed, then the slot holding `key`, or the empty slot where
  /// it belongs.
  Slot& SlotFor(const Key& key) {
    MaybeGrow();
    size_t mask = slots_.size() - 1;
    size_t idx = Hash{}(key)&mask;
    while (slots_[idx].used && !Eq{}(slots_[idx].kv.first, key)) {
      idx = (idx + 1) & mask;
    }
    return slots_[idx];
  }

  void MaybeGrow() {
    if (slots_.empty()) {
      Rehash(16);
    } else if ((size_ + 1) * 4 >= slots_.size() * 3) {  // load factor 0.75
      Rehash(slots_.size() * 2);
    }
  }

  void Rehash(size_t new_cap) {
    assert((new_cap & (new_cap - 1)) == 0 && "capacity must be a power of two");
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(new_cap, Slot{});
    size_ = 0;
    for (Slot& s : old) {
      if (s.used) InsertOrAssign(std::move(s.kv.first), std::move(s.kv.second));
    }
  }

  std::vector<Slot> slots_;
  size_t size_ = 0;
};

}  // namespace diesel
