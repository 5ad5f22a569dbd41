// Bounds-checked binary serialization helpers.
//
// All on-disk / on-wire DIESEL structures (chunk headers, KV metadata values,
// snapshots) are encoded little-endian through BinaryWriter and decoded
// through BinaryReader. BinaryReader never reads past the end: every
// accessor reports kCorruption instead.
#pragma once

#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"

namespace diesel {

using Bytes = std::vector<uint8_t>;
using BytesView = std::span<const uint8_t>;
/// An immutable blob shared by reference: chunk blobs travel from the
/// builder through the object store into the task cache without a copy.
using SharedBytes = std::shared_ptr<const Bytes>;

/// Seal `b` into an immutable shared blob (moves, never copies).
inline SharedBytes ShareBytes(Bytes b) {
  return std::make_shared<const Bytes>(std::move(b));
}

inline BytesView AsBytesView(const std::string& s) {
  return {reinterpret_cast<const uint8_t*>(s.data()), s.size()};
}
inline BytesView AsBytesView(std::string_view s) {
  return {reinterpret_cast<const uint8_t*>(s.data()), s.size()};
}
inline std::string_view AsStringView(BytesView b) {
  return {reinterpret_cast<const char*>(b.data()), b.size()};
}
inline std::string ToString(BytesView b) {
  return {reinterpret_cast<const char*>(b.data()), b.size()};
}

/// Little-endian load of a T from `p`, which the caller has bounds-checked.
template <typename T>
T LoadLE(const uint8_t* p) {
  T v;
  std::memcpy(&v, p, sizeof(T));  // little-endian hosts only, as PutLE
  return v;
}

/// Append-only little-endian encoder.
class BinaryWriter {
 public:
  BinaryWriter() = default;
  explicit BinaryWriter(size_t reserve) { buf_.reserve(reserve); }

  void PutU8(uint8_t v) { buf_.push_back(v); }
  void PutU16(uint16_t v) { PutLE(v); }
  void PutU32(uint32_t v) { PutLE(v); }
  void PutU64(uint64_t v) { PutLE(v); }
  void PutI64(int64_t v) { PutLE(static_cast<uint64_t>(v)); }
  void PutDouble(double v) {
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    PutLE(bits);
  }

  /// Raw bytes, no length prefix.
  void PutRaw(BytesView data) { buf_.insert(buf_.end(), data.begin(), data.end()); }
  void PutRaw(const void* data, size_t n) {
    const auto* p = static_cast<const uint8_t*>(data);
    buf_.insert(buf_.end(), p, p + n);
  }

  /// u32 length prefix + bytes.
  void PutBytes(BytesView data) {
    PutU32(static_cast<uint32_t>(data.size()));
    PutRaw(data);
  }
  void PutString(std::string_view s) { PutBytes(AsBytesView(s)); }

  /// Unsigned LEB128 varint.
  void PutVarint(uint64_t v) {
    while (v >= 0x80) {
      buf_.push_back(static_cast<uint8_t>(v) | 0x80);
      v >>= 7;
    }
    buf_.push_back(static_cast<uint8_t>(v));
  }

  size_t size() const { return buf_.size(); }
  const Bytes& data() const { return buf_; }
  /// Empty the buffer but keep its capacity, to encode the next record.
  void Clear() { buf_.clear(); }
  Bytes Take() && { return std::move(buf_); }

  /// Overwrite 4 bytes at `offset` (for back-patching lengths/checksums).
  void PatchU32(size_t offset, uint32_t v) {
    assert(offset + 4 <= buf_.size());
    std::memcpy(buf_.data() + offset, &v, 4);
  }

 private:
  template <typename T>
  void PutLE(T v) {
    // Little-endian hosts only (asserted in bytes.cc); memcpy keeps it UB-free.
    const size_t at = buf_.size();
    buf_.resize(at + sizeof(T));
    std::memcpy(buf_.data() + at, &v, sizeof(T));
  }

  Bytes buf_;
};

/// Bounds-checked little-endian decoder over a non-owning view.
class BinaryReader {
 public:
  explicit BinaryReader(BytesView data) : data_(data) {}

  Result<uint8_t> ReadU8() { return ReadLE<uint8_t>(); }
  Result<uint16_t> ReadU16() { return ReadLE<uint16_t>(); }
  Result<uint32_t> ReadU32() { return ReadLE<uint32_t>(); }
  Result<uint64_t> ReadU64() { return ReadLE<uint64_t>(); }
  Result<int64_t> ReadI64() {
    DIESEL_ASSIGN_OR_RETURN(uint64_t bits, ReadU64());
    return static_cast<int64_t>(bits);
  }
  Result<double> ReadDouble() {
    DIESEL_ASSIGN_OR_RETURN(uint64_t bits, ReadU64());
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }

  Result<BytesView> ReadRaw(size_t n) {
    if (remaining() < n)
      return Status::Corruption("BinaryReader: truncated raw read");
    BytesView out = data_.subspan(pos_, n);
    pos_ += n;
    return out;
  }

  Result<BytesView> ReadBytes() {
    DIESEL_ASSIGN_OR_RETURN(uint32_t n, ReadU32());
    return ReadRaw(n);
  }
  Result<std::string> ReadString() {
    DIESEL_ASSIGN_OR_RETURN(BytesView b, ReadBytes());
    return ToString(b);
  }

  Result<uint64_t> ReadVarint() {
    uint64_t v = 0;
    for (int shift = 0; shift < 64; shift += 7) {
      if (pos_ >= data_.size())
        return Status::Corruption("BinaryReader: truncated varint");
      uint8_t byte = data_[pos_++];
      v |= static_cast<uint64_t>(byte & 0x7F) << shift;
      if ((byte & 0x80) == 0) return v;
    }
    return Status::Corruption("BinaryReader: varint too long");
  }

  Status Skip(size_t n) {
    if (remaining() < n) return Status::Corruption("BinaryReader: skip past end");
    pos_ += n;
    return Status::Ok();
  }

  size_t pos() const { return pos_; }
  size_t remaining() const { return data_.size() - pos_; }
  bool AtEnd() const { return pos_ == data_.size(); }

 private:
  template <typename T>
  Result<T> ReadLE() {
    if (remaining() < sizeof(T))
      return Status::Corruption("BinaryReader: truncated fixed read");
    T v = LoadLE<T>(data_.data() + pos_);
    pos_ += sizeof(T);
    return v;
  }

  BytesView data_;
  size_t pos_ = 0;
};

}  // namespace diesel
