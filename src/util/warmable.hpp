// Warmable: the hook set every functionally-warmable microarchitectural
// structure implements (SMARTS-style functional warming, docs/sampling.md).
// A Warmable component can
//   - report a deterministic digest of its table contents (differential
//     tests compare a functionally warmed instance against one trained by
//     detailed execution of the same committed prefix), and
//   - serialize / deserialize its state as an opaque little-endian byte
//     blob (warm sidecars carry these blobs so warmed intervals can be
//     shipped between machines — trace/manifest.hpp). Tables go through the
//     one sparse codec below (write_sparse_table / read_sparse_table), so
//     a blob's size follows the live entries, not the table geometry.
// The commit-order update methods themselves stay non-virtual on each
// component (warm paths are hot); this interface only standardizes the
// state-capture surface.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

namespace cfir::util {

/// Append-only little-endian byte sink for Warmable::serialize.
class ByteWriter {
 public:
  void u8(uint8_t v) { buf_.push_back(v); }
  void u32(uint32_t v) { raw(&v, sizeof(v)); }
  void u64(uint64_t v) { raw(&v, sizeof(v)); }
  void i64(int64_t v) { raw(&v, sizeof(v)); }
  void boolean(bool v) { u8(v ? 1 : 0); }
  void bytes(const uint8_t* data, size_t n) { raw(data, n); }
  /// Unsigned LEB128: 7 bits per byte, low group first, high bit = more.
  void varint(uint64_t v) {
    while (v >= 0x80) {
      buf_.push_back(static_cast<uint8_t>(v) | 0x80);
      v >>= 7;
    }
    buf_.push_back(static_cast<uint8_t>(v));
  }

  [[nodiscard]] const std::vector<uint8_t>& data() const { return buf_; }
  [[nodiscard]] std::vector<uint8_t> take() { return std::move(buf_); }

 private:
  void raw(const void* p, size_t n) {
    const auto* b = static_cast<const uint8_t*>(p);
    buf_.insert(buf_.end(), b, b + n);
  }
  std::vector<uint8_t> buf_;
};

/// Bounds-checked reader over a serialized blob; throws std::runtime_error
/// on underflow so truncated/corrupt blobs fail loudly, never read stale
/// memory.
class ByteReader {
 public:
  ByteReader(const uint8_t* data, size_t size) : data_(data), size_(size) {}
  explicit ByteReader(const std::vector<uint8_t>& blob)
      : ByteReader(blob.data(), blob.size()) {}

  uint8_t u8() { return *take(1); }
  uint32_t u32() { return read<uint32_t>(); }
  uint64_t u64() { return read<uint64_t>(); }
  int64_t i64() { return read<int64_t>(); }
  bool boolean() { return u8() != 0; }
  void bytes(uint8_t* out, size_t n) { std::memcpy(out, take(n), n); }
  /// Reads what ByteWriter::varint wrote. Only the shortest encoding of a
  /// value that fits in 64 bits is accepted, so every accepted blob
  /// re-serializes to itself.
  uint64_t varint() {
    uint64_t v = 0;
    for (unsigned shift = 0;; shift += 7) {
      const uint8_t b = u8();
      if ((shift == 63 && b > 1) || (shift > 0 && b == 0)) {
        throw std::runtime_error("ByteReader: malformed varint in warm-state blob");
      }
      v |= static_cast<uint64_t>(b & 0x7f) << shift;
      if ((b & 0x80) == 0) return v;
    }
  }

  [[nodiscard]] size_t remaining() const { return size_ - pos_; }
  [[nodiscard]] bool done() const { return pos_ == size_; }

 private:
  template <typename T>
  T read() {
    T v;
    std::memcpy(&v, take(sizeof(T)), sizeof(T));
    return v;
  }
  const uint8_t* take(size_t n) {
    if (size_ - pos_ < n) {
      throw std::runtime_error("ByteReader: truncated warm-state blob");
    }
    const uint8_t* p = data_ + pos_;
    pos_ += n;
    return p;
  }
  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
};

/// Accumulating FNV-1a 64-bit hash for debug_digest implementations.
/// Feed fields in a fixed order; the result is stable across hosts (all
/// inputs are hashed through fixed-width little-endian encodings).
class Digest {
 public:
  Digest& u8(uint8_t v) { return byte(v); }
  Digest& u32(uint32_t v) { return mix(&v, sizeof(v)); }
  Digest& u64(uint64_t v) { return mix(&v, sizeof(v)); }
  Digest& i64(int64_t v) { return mix(&v, sizeof(v)); }
  Digest& boolean(bool v) { return byte(v ? 1 : 0); }
  Digest& bytes(const uint8_t* data, size_t n) { return mix(data, n); }

  [[nodiscard]] uint64_t value() const { return h_; }

 private:
  Digest& byte(uint8_t b) {
    h_ ^= b;
    h_ *= 0x100000001b3ull;
    return *this;
  }
  Digest& mix(const void* p, size_t n) {
    const auto* b = static_cast<const uint8_t*>(p);
    for (size_t i = 0; i < n; ++i) byte(b[i]);
    return *this;
  }
  uint64_t h_ = 0xcbf29ce484222325ull;
};

/// Thrown by Warmable::deserialize when the blob's embedded geometry
/// does not match the component's: the blob is well formed but belongs to
/// a differently configured instance. Every other deserialize failure is
/// a structurally broken blob.
class WarmGeometryError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// The sparse table codec every Warmable table serializes through.
/// Layout: a varint count of the entries that differ from `blank` (the
/// component's default-constructed entry), then for each such entry, in
/// ascending index order, a varint gap — the index itself for the first
/// entry, the distance from the previous listed index (>= 1) after it —
/// followed by the entry's fields as `put(out, entry)` writes them.
/// Restoring resets every entry to `blank` before filling the listed
/// ones, so the codec is lossless for any table contents; it never relies
/// on invalid entries happening to hold default values.
template <typename Entry, typename Put>
void write_sparse_table(ByteWriter& out, const std::vector<Entry>& table,
                        const Entry& blank, Put put) {
  const auto live = std::count_if(table.begin(), table.end(),
                                  [&](const Entry& e) { return !(e == blank); });
  out.varint(static_cast<uint64_t>(live));
  size_t prev = 0;
  for (size_t i = 0; i < table.size(); ++i) {
    if (table[i] == blank) continue;
    out.varint(i - prev);
    put(out, table[i]);
    prev = i;
  }
}

/// Inverse of write_sparse_table: `get(in, entry)` reads the fields `put`
/// wrote. Rejects (std::runtime_error, before writing anything out of
/// range) a count above the table size, an index at or past the end, a
/// zero gap after the first entry, and a listed entry equal to `blank` —
/// the last three keep the encoding canonical, so an accepted table
/// re-serializes to the same bytes.
template <typename Entry, typename Get>
void read_sparse_table(ByteReader& in, std::vector<Entry>& table,
                       const Entry& blank, Get get) {
  const uint64_t count = in.varint();
  if (count > table.size()) {
    throw std::runtime_error("warm-state table lists " +
                             std::to_string(count) + " entries, table has " +
                             std::to_string(table.size()));
  }
  std::fill(table.begin(), table.end(), blank);
  size_t index = 0;
  for (uint64_t k = 0; k < count; ++k) {
    const uint64_t gap = in.varint();
    if (k > 0 && gap == 0) {
      throw std::runtime_error("warm-state table index does not increase");
    }
    if (gap >= table.size() - index) {
      throw std::runtime_error("warm-state table index out of range");
    }
    index += static_cast<size_t>(gap);
    get(in, table[index]);
    if (table[index] == blank) {
      throw std::runtime_error("warm-state table lists a default entry");
    }
  }
}

/// The interface proper. `deserialize` must reject blobs whose embedded
/// geometry (table sizes etc.) does not match the component's configured
/// geometry with WarmGeometryError — warm state is only transferable
/// between identically configured instances.
struct Warmable {
  virtual ~Warmable() = default;
  [[nodiscard]] virtual uint64_t debug_digest() const = 0;
  virtual void serialize(ByteWriter& out) const = 0;
  virtual void deserialize(ByteReader& in) = 0;
};

}  // namespace cfir::util
