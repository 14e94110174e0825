#include "trace/trace_v2.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstring>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "trace/blob.hpp"
#include "trace/errors.hpp"
#include "util/crc32.hpp"

namespace cfir::trace {

namespace {

constexpr char kIndexMagic[8] = {'C', 'F', 'I', 'R', 'I', 'D', 'X', '2'};

/// Fixed part of a block: u32 record count, five u64 coder bases, and the
/// eleven u32 per-column payload lengths.
constexpr size_t kBlockFixedBytes = 4 + 5 * 8 + kTraceV2Columns * 4;

/// Index footer after the entries: u64 n_blocks + u64 index_offset +
/// index magic + "CRC1" index crc + whole-file "CRC1" footer.
constexpr size_t kIndexTailBytes = 8 + 8 + 8 + kCrcFooterBytes +
                                   kCrcFooterBytes;

constexpr uint64_t zigzag(int64_t v) {
  return (static_cast<uint64_t>(v) << 1) ^ static_cast<uint64_t>(v >> 63);
}
constexpr int64_t unzigzag(uint64_t v) {
  return static_cast<int64_t>((v >> 1) ^ (~(v & 1) + 1));
}

// pc and branch-target deltas are almost always multiples of
// isa::kInstBytes (4), so the codec divides them down before zigzag and
// carries the remainder in the low two bits — one varint byte then spans
// ±16KiB of code instead of ±4KiB. Works for arbitrary 64-bit deltas:
// d = 4*(sd >> 2) + (d & 3) with an arithmetic (floor) shift.
constexpr uint64_t scale_encode(uint64_t d) {
  return (zigzag(static_cast<int64_t>(d) >> 2) << 2) | (d & 3);
}
constexpr uint64_t scale_decode(uint64_t v) {
  return (static_cast<uint64_t>(unzigzag(v >> 2)) << 2) + (v & 3);
}

uint8_t log2_size(uint8_t bytes) {
  switch (bytes) {
    case 1: return 0;
    case 2: return 1;
    case 4: return 2;
    default: return 3;
  }
}

void put_u32(std::vector<uint8_t>& out, uint32_t v) {
  const size_t n = out.size();
  out.resize(n + 4);
  std::memcpy(out.data() + n, &v, 4);
}
void put_u64(std::vector<uint8_t>& out, uint64_t v) {
  const size_t n = out.size();
  out.resize(n + 8);
  std::memcpy(out.data() + n, &v, 8);
}
uint32_t rd_u32(const uint8_t* p) {
  uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}
uint64_t rd_u64(const uint8_t* p) {
  uint64_t v;
  std::memcpy(&v, p, 8);
  return v;
}

void put_varint(std::vector<uint8_t>& out, uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<uint8_t>((v & 0x7f) | 0x80));
    v >>= 7;
  }
  out.push_back(static_cast<uint8_t>(v));
}

// --------------------------------------------------------------------------
// Per-column byte compressor: a tiny deterministic greedy LZ (hash-4 match
// finder, varint-framed literal-run / match pairs, unbounded window inside
// the column). Column payloads are highly repetitive — the kind stream and
// the flag bitmaps replay the program's loop structure — so matching whole
// repeated stretches is worth far more than shaving bits per field. Each
// column stores a leading codec byte (kCodecRaw | kCodecLz) and the writer
// keeps whichever is smaller, so pathological inputs never grow beyond
// raw + 1 byte.
//
// LZ body layout: varint uncompressed_size, then alternating
//   varint lit_len | lit bytes | varint (match_len - 4) | varint distance
// ending after a literal run that reaches uncompressed_size (a trailing
// empty run is omitted when a match ends the stream).
// --------------------------------------------------------------------------

constexpr uint8_t kCodecRaw = 0;
constexpr uint8_t kCodecLz = 1;
constexpr size_t kLzMinMatch = 4;

[[noreturn]] void corrupt(const std::string& what);

std::vector<uint8_t> lz_compress(const uint8_t* src, size_t n) {
  std::vector<uint8_t> out;
  put_varint(out, n);
  constexpr uint32_t kHashBits = 15;
  std::vector<int64_t> head(size_t{1} << kHashBits, -1);
  const auto hash4 = [&](size_t i) {
    uint32_t v;
    std::memcpy(&v, src + i, 4);
    return (v * 2654435761u) >> (32 - kHashBits);
  };
  size_t i = 0;
  size_t lit_start = 0;
  const auto flush_lits = [&](size_t end) {
    put_varint(out, end - lit_start);
    out.insert(out.end(), src + lit_start, src + end);
  };
  while (i + kLzMinMatch <= n) {
    const uint32_t h = hash4(i);
    const int64_t cand = head[h];
    head[h] = static_cast<int64_t>(i);
    size_t match_len = 0;
    if (cand >= 0 &&
        std::memcmp(src + cand, src + i, kLzMinMatch) == 0) {
      size_t l = kLzMinMatch;
      while (i + l < n && src[static_cast<size_t>(cand) + l] == src[i + l]) {
        ++l;
      }
      match_len = l;
    }
    if (match_len >= kLzMinMatch) {
      flush_lits(i);
      put_varint(out, match_len - kLzMinMatch);
      put_varint(out, i - static_cast<size_t>(cand));
      for (size_t k = 1; k < match_len && i + k + kLzMinMatch <= n; ++k) {
        head[hash4(i + k)] = static_cast<int64_t>(i + k);
      }
      i += match_len;
      lit_start = i;
    } else {
      ++i;
    }
  }
  if (lit_start < n) flush_lits(n);
  return out;
}

/// Expands one LZ column body into `out` (grown on demand, never shrunk,
/// so a decoder reuses it across blocks) and returns the expanded length.
/// Literal runs and matches move whole words or memcpy runs, never bytes.
size_t lz_decompress(const uint8_t* src, size_t n, uint64_t max_raw,
                     std::vector<uint8_t>& out) {
  size_t pos = 0;
  const auto get_varint = [&]() -> uint64_t {
    uint64_t v = 0;
    int shift = 0;
    for (;;) {
      if (pos >= n) corrupt("truncated lz column");
      const uint8_t c = src[pos++];
      if (shift == 63 && (c & 0x7f) > 1) corrupt("lz varint overflow");
      v |= static_cast<uint64_t>(c & 0x7f) << shift;
      if ((c & 0x80) == 0) return v;
      shift += 7;
      if (shift > 63) corrupt("lz varint overflow");
    }
  };
  const uint64_t raw_size = get_varint();
  // A column holds at most one varint per record, so anything larger than
  // the block can carry is corruption, not data.
  if (raw_size > max_raw) corrupt("lz column size implausible");
  // Slack past the end lets short copies move whole 8-byte words; bytes
  // written there are overwritten by the next token or never read.
  constexpr size_t kSlack = 16;
  if (out.size() < raw_size + kSlack) out.resize(raw_size + kSlack);
  uint8_t* dst = out.data();
  uint64_t len = 0;
  while (len < raw_size) {
    const uint64_t lit = get_varint();
    if (lit > raw_size - len || lit > n - pos) {
      corrupt("lz literal run overruns");
    }
    if (lit <= 16 && n - pos >= 16) {
      std::memcpy(dst + len, src + pos, 16);
    } else {
      std::memcpy(dst + len, src + pos, lit);
    }
    pos += lit;
    len += lit;
    if (len >= raw_size) break;
    const uint64_t mlen = get_varint() + kLzMinMatch;
    const uint64_t dist = get_varint();
    if (dist == 0 || dist > len || mlen > raw_size - len) {
      corrupt("lz match out of range");
    }
    uint8_t* to = dst + len;
    if (dist >= 8) {
      // Each word's source lies wholly before its destination.
      for (uint64_t k = 0; k < mlen; k += 8) {
        std::memcpy(to + k, to + k - dist, 8);
      }
    } else {
      // The match repeats the `dist`-byte pattern before it. Copy one
      // period, then keep doubling the copied stretch: it stays a whole
      // number of periods, so each copy is a non-overlapping memcpy.
      uint64_t done = dist;
      std::memcpy(to, to - dist, dist);
      while (done < mlen) {
        const uint64_t chunk = std::min(done, mlen - done);
        std::memcpy(to + done, to, chunk);
        done += chunk;
      }
    }
    len += mlen;
  }
  if (pos != n) corrupt("lz column length mismatch");
  return raw_size;
}

/// Packs one bit per push, LSB-first within each byte.
class BitPacker {
 public:
  void push(bool bit) {
    if ((n_ & 7) == 0) bytes_.push_back(0);
    if (bit) bytes_.back() |= static_cast<uint8_t>(1u << (n_ & 7));
    ++n_;
  }
  [[nodiscard]] const std::vector<uint8_t>& bytes() const { return bytes_; }

 private:
  std::vector<uint8_t> bytes_;
  size_t n_ = 0;
};

/// Packs one 2-bit code per push, low pairs first within each byte.
class CodePacker {
 public:
  void push(uint8_t code) {
    if ((n_ & 3) == 0) bytes_.push_back(0);
    bytes_.back() |= static_cast<uint8_t>((code & 3u) << ((n_ & 3) * 2));
    ++n_;
  }
  [[nodiscard]] const std::vector<uint8_t>& bytes() const { return bytes_; }

 private:
  std::vector<uint8_t> bytes_;
  size_t n_ = 0;
};

[[noreturn]] void corrupt(const std::string& what) {
  throw CorruptFileError("CFIRTRC2: " + what);
}

/// Unbounded LEB128 read: only for columns the validation pass proved
/// hold exactly the varints the decode loop consumes.
inline uint64_t read_varint(const uint8_t*& p) {
  uint64_t v = 0;
  int shift = 0;
  for (;;) {
    const uint8_t c = *p++;
    v |= static_cast<uint64_t>(c & 0x7f) << shift;
    if (c < 0x80) return v;
    shift += 7;
  }
}

inline bool bit_at(const uint8_t* col, uint32_t i) {
  return ((col[i >> 3] >> (i & 7)) & 1) != 0;
}

inline uint8_t code_at(const uint8_t* col, uint32_t i) {
  return (col[i >> 2] >> ((i & 3) * 2)) & 3;
}

/// Loads bytes [at, at + 8) of a `len`-byte column as a little-endian word,
/// zero past the end.
inline uint64_t load_word(const uint8_t* col, size_t len, size_t at) {
  uint64_t w = 0;
  if (at + 8 <= len) {
    std::memcpy(&w, col + at, 8);
  } else {
    std::memcpy(&w, col + at, len - at);
  }
  if constexpr (std::endian::native == std::endian::big) {
    w = __builtin_bswap64(w);
  }
  return w;
}

/// Bit count without a library call: on the baseline x86-64 target
/// std::popcount is an out-of-line libgcc routine.
inline uint64_t ones(uint64_t x) {
  x -= (x >> 1) & 0x5555555555555555ull;
  x = (x & 0x3333333333333333ull) + ((x >> 2) & 0x3333333333333333ull);
  x = (x + (x >> 4)) & 0x0f0f0f0f0f0f0f0full;
  return (x * 0x0101010101010101ull) >> 56;
}

/// Set bits among the first `bits` bits of a bitmap column.
uint64_t popcount_prefix(const uint8_t* col, size_t len, uint64_t bits) {
  uint64_t set = 0;
  for (size_t at = 0; at * 8 < bits; at += 8) {
    uint64_t w = load_word(col, len, at);
    const uint64_t left = bits - at * 8;
    if (left < 64) w &= (uint64_t{1} << left) - 1;
    set += ones(w);
  }
  return set;
}

/// Proves `col` holds exactly `count` well-formed varints (each
/// terminated, none past 64 bits) and nothing else — the checks the
/// decode loop's unbounded read_varint relies on.
void check_varints(const uint8_t* col, size_t len, uint64_t count) {
  // Word-at-a-time fast path: when no varint is longer than nine bytes,
  // none can overflow, so the column is well formed exactly when it holds
  // `count` terminator bytes (high bit clear) and ends on one.
  // `run` is a sliding window of continuation flags, one bit per byte in
  // stream order; nine adjacent ones mean a varint of ten bytes or more,
  // which takes the exact byte-wise check below.
  constexpr uint64_t kHigh = 0x8080808080808080ull;
  uint64_t terminators = 0;
  uint64_t run = 0;
  bool long_varint = false;
  for (size_t at = 0; at < len; at += 8) {
    const size_t n = std::min<size_t>(8, len - at);
    const uint64_t valid = n == 8 ? ~uint64_t{0} : (uint64_t{1} << 8 * n) - 1;
    const uint64_t w = load_word(col, len, at);
    terminators += ones(~w & kHigh & valid);
    const uint64_t cont = ((w & kHigh & valid) >> 7) *
                              0x0102040810204080ull >> 56;  // byte j -> bit j
    run = (run >> 8) | (cont << 56);
    uint64_t nine = run;
    for (int k = 1; k < 9; ++k) nine &= run >> k;
    long_varint |= nine != 0;
  }
  if (!long_varint) {
    if (terminators != count || (len > 0 && col[len - 1] >= 0x80)) {
      corrupt("varint column length mismatch");
    }
    return;
  }
  size_t pos = 0;
  for (uint64_t k = 0; k < count; ++k) {
    int shift = 0;
    for (;;) {
      if (pos >= len) corrupt("truncated varint column");
      const uint8_t c = col[pos++];
      if (shift == 63 && (c & 0x7f) > 1) corrupt("varint overflow");
      if ((c & 0x80) == 0) break;
      shift += 7;
      if (shift > 63) corrupt("varint overflow");
    }
  }
  if (pos != len) corrupt("varint column length mismatch");
}

/// Serializes the CFIRTRC2 header: the blob header (magic, version and a
/// u32 that holds the block capacity), then the counts, final state and
/// workload identity.
std::vector<uint8_t> encode_header(const TraceMeta& meta, uint32_t block_len,
                                   uint64_t record_count,
                                   uint64_t final_digest,
                                   const std::array<uint64_t,
                                                    isa::kNumLogicalRegs>&
                                       final_regs) {
  std::vector<uint8_t> out;
  out.insert(out.end(), kTraceMagic, kTraceMagic + 8);
  put_u32(out, kTraceVersion);
  put_u32(out, block_len);
  put_u64(out, record_count);
  put_u64(out, meta.base_pc);
  put_u64(out, final_digest);
  for (const uint64_t r : final_regs) put_u64(out, r);
  put_u32(out, meta.scale);
  put_u32(out, static_cast<uint32_t>(meta.workload.size()));
  out.insert(out.end(), meta.workload.begin(), meta.workload.end());
  return out;
}

}  // namespace

// ---------------------------------------------------------------------------
// Reader side
// ---------------------------------------------------------------------------

namespace v2 {

FileView open_file(const std::string& path) {
  FileView f;
  {
    std::ifstream in(path, std::ios::binary | std::ios::ate);
    if (!in) throw std::runtime_error("TraceReader: cannot open " + path);
    const std::streamoff size = in.tellg();
    f.bytes.resize(static_cast<size_t>(size));
    in.seekg(0);
    in.read(reinterpret_cast<char*>(f.bytes.data()), size);
    if (!in) corrupt("short read of " + path);
  }
  const std::vector<uint8_t>& b = f.bytes;
  (void)read_blob_header(b, kTraceMagic, kTraceVersion, "TraceReader " + path,
                         "trace_tool record");
  constexpr size_t kFixedHeader =
      8 + 4 + 4 + 8 + 8 + 8 + 8 * isa::kNumLogicalRegs + 4 + 4;
  if (b.size() < kFixedHeader) corrupt("truncated header in " + path);
  f.block_len = rd_u32(b.data() + 12);
  f.record_count = rd_u64(b.data() + 16);
  if (f.record_count == kUnfinishedRecordCount) {
    throw std::runtime_error(
        "TraceReader: unfinished trace (recording was interrupted before "
        "finish()) in " + path);
  }
  if (f.block_len == 0) corrupt("zero block length in " + path);
  f.meta.base_pc = rd_u64(b.data() + 24);
  f.final_digest = rd_u64(b.data() + 32);
  for (int i = 0; i < isa::kNumLogicalRegs; ++i) {
    f.final_regs[static_cast<size_t>(i)] =
        rd_u64(b.data() + 40 + 8 * static_cast<size_t>(i));
  }
  const size_t post_regs = 40 + 8 * static_cast<size_t>(isa::kNumLogicalRegs);
  f.meta.scale = rd_u32(b.data() + post_regs);
  const uint32_t name_len = rd_u32(b.data() + post_regs + 4);
  if (name_len > 4096) {
    corrupt("corrupt header (name length " + std::to_string(name_len) +
            ") in " + path);
  }
  const size_t header_size = kFixedHeader + name_len;
  if (b.size() < header_size + kIndexTailBytes) {
    corrupt("truncated file " + path);
  }
  f.meta.workload.assign(
      reinterpret_cast<const char*>(b.data() + kFixedHeader), name_len);

  // Parse the footers back to front: whole-file CRC (present but not
  // verified here — per-block CRCs and the index CRC below localize
  // integrity so open stays O(index)), index CRC, index magic, then the
  // two u64 index fields and the entries.
  const size_t fsize = b.size();
  if (std::memcmp(b.data() + fsize - 8, kCrcFooterMagic, 4) != 0) {
    corrupt("missing whole-file CRC footer in " + path);
  }
  if (std::memcmp(b.data() + fsize - 16, kCrcFooterMagic, 4) != 0) {
    corrupt("missing index CRC footer in " + path);
  }
  if (std::memcmp(b.data() + fsize - 24, kIndexMagic, 8) != 0) {
    corrupt("missing or corrupt index footer in " + path);
  }
  const uint64_t n_blocks = rd_u64(b.data() + fsize - 40);
  f.index_offset = rd_u64(b.data() + fsize - 32);
  if (f.index_offset < header_size ||
      f.index_offset + n_blocks * kIndexEntryBytes + kIndexTailBytes !=
          fsize) {
    corrupt("index footer geometry mismatch in " + path);
  }
  const uint32_t want_icrc = rd_u32(b.data() + fsize - 12);
  uint32_t icrc = util::crc32(b.data(), header_size);
  icrc = util::crc32(b.data() + f.index_offset, fsize - 16 - f.index_offset,
                     icrc);
  if (icrc != want_icrc) corrupt("index CRC mismatch in " + path);

  f.blocks.resize(n_blocks);
  uint64_t expect_first = 0;
  uint64_t expect_offset = header_size;
  for (size_t i = 0; i < n_blocks; ++i) {
    const uint8_t* e = b.data() + f.index_offset + i * kIndexEntryBytes;
    f.blocks[i].first_record = rd_u64(e);
    f.blocks[i].offset = rd_u64(e + 8);
    f.blocks[i].count = rd_u32(e + 16);
    // Blocks are written back to back, so each entry must pick up exactly
    // where the previous block ended and the last must end at the index.
    if (f.blocks[i].first_record != expect_first ||
        f.blocks[i].offset != expect_offset || f.blocks[i].count == 0 ||
        f.blocks[i].count > f.block_len) {
      corrupt("inconsistent block index in " + path);
    }
    const uint64_t end = (i + 1 < n_blocks)
                             ? rd_u64(b.data() + f.index_offset +
                                      (i + 1) * kIndexEntryBytes + 8)
                             : f.index_offset;
    if (end < f.blocks[i].offset + kBlockFixedBytes + kCrcFooterBytes) {
      corrupt("undersized block in " + path);
    }
    expect_first += f.blocks[i].count;
    expect_offset = end;
  }
  if (expect_first != f.record_count) {
    corrupt("block index does not cover the record count in " + path);
  }
  return f;
}

namespace {

/// Nanoseconds since `start` on the monotonic clock.
uint64_t ns_since(std::chrono::steady_clock::time_point start) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
}

/// `trace.decode_us`, looked up once: the destructor observes into it and
/// must not allocate.
obs::Histogram& decode_us_histogram() {
  static obs::Histogram& h =
      obs::Registry::instance().histogram("trace.decode_us");
  return h;
}

}  // namespace

BlockDecoder::~BlockDecoder() { observe_decode_time(); }

void BlockDecoder::observe_decode_time() noexcept {
  if (!timed_) return;
  timed_ = false;
  decode_us_histogram().observe((decode_ns_ + 500) / 1000);
}

void BlockDecoder::open(const FileView& file, size_t b) {
  observe_decode_time();
  const auto start = std::chrono::steady_clock::now();
  count_ = 0;
  done_ = 0;
  if (b >= file.blocks.size()) {
    throw std::out_of_range("decode_block: block " + std::to_string(b) +
                            " of " + std::to_string(file.blocks.size()));
  }
  const BlockIndexEntry& entry = file.blocks[b];
  const uint64_t end = (b + 1 < file.blocks.size())
                           ? file.blocks[b + 1].offset
                           : file.index_offset;
  const uint8_t* base = file.bytes.data() + entry.offset;
  const size_t avail = static_cast<size_t>(end - entry.offset);
  if (avail < kBlockFixedBytes + kCrcFooterBytes) corrupt("truncated block");

  const uint32_t n = rd_u32(base);
  if (n != entry.count) corrupt("block record count disagrees with index");

  std::array<size_t, kTraceV2Columns> stored_len{};
  size_t off = kBlockFixedBytes;
  for (size_t c = 0; c < kTraceV2Columns; ++c) {
    const uint32_t len = rd_u32(base + 44 + 4 * c);
    if (len > avail - kCrcFooterBytes || off + len > avail - kCrcFooterBytes) {
      corrupt("block column lengths exceed the block");
    }
    stored_len[c] = len;
    off += len;
  }
  if (off + kCrcFooterBytes != avail) {
    corrupt("block column lengths disagree with the block size");
  }
  if (std::memcmp(base + off, kCrcFooterMagic, 4) != 0 ||
      rd_u32(base + off + 4) != util::crc32(base, off)) {
    corrupt("block CRC mismatch");
  }

  // Unframe each column: leading codec byte, body either raw (read in
  // place) or LZ (expanded into this decoder's scratch buffer).
  std::array<size_t, kTraceV2Columns> len{};
  const uint64_t max_raw = uint64_t{10} * n;
  const uint8_t* stored = base + kBlockFixedBytes;
  for (size_t c = 0; c < kTraceV2Columns; ++c) {
    col_[c] = stored;
    if (stored_len[c] > 0) {
      const uint8_t codec = stored[0];
      if (codec == kCodecRaw) {
        col_[c] = stored + 1;
        len[c] = stored_len[c] - 1;
      } else if (codec == kCodecLz) {
        len[c] = lz_decompress(stored + 1, stored_len[c] - 1, max_raw,
                               scratch_[c]);
        col_[c] = scratch_[c].data();
      } else {
        corrupt("unknown column codec");
      }
    }
    stored += stored_len[c];
  }

  // Validation pass: the kind codes fix how many branch / load / store
  // records the block holds, which fixes every per-kind column's exact
  // length; each flag bitmap's popcount fixes how many varints its delta
  // column holds.
  const auto expect_len = [&](size_t c, uint64_t want, const char* what) {
    if (len[c] != want) corrupt(std::string(what) + " column length mismatch");
  };
  expect_len(0, (uint64_t{n} + 3) / 4, "code");
  uint64_t branches = 0;
  uint64_t loads = 0;
  uint64_t stores = 0;
  constexpr uint64_t kLowBits = 0x5555555555555555ull;
  for (size_t at = 0; at < len[0]; at += 8) {
    const uint64_t w = load_word(col_[0], len[0], at);
    const uint64_t codes = uint64_t{n} - at * 4;  // codes left from `at`
    const uint64_t valid =
        codes >= 32 ? ~uint64_t{0} : (uint64_t{1} << (2 * codes)) - 1;
    const uint64_t lo = w & valid & kLowBits;
    const uint64_t hi = (w & valid) >> 1 & kLowBits;
    branches += ones(lo & ~hi);
    loads += ones(hi & ~lo);
    stores += ones(lo & hi);
  }
  const auto check_flagged = [&](size_t flags, size_t deltas,
                                 uint64_t records) {
    expect_len(flags, (records + 7) / 8, "bitmap");
    check_varints(col_[deltas], len[deltas],
                  popcount_prefix(col_[flags], len[flags], records));
  };
  check_flagged(1, 2, n);
  expect_len(3, (branches + 7) / 8, "bitmap");
  check_flagged(4, 5, branches);
  check_flagged(6, 7, loads);
  check_flagged(8, 9, stores);
  expect_len(10, (loads + stores + 3) / 4, "code");

  first_record_ = entry.first_record;
  branches_ = loads_ = stores_ = 0;
  pc_varint_ = col_[2];
  target_varint_ = col_[5];
  load_varint_ = col_[7];
  store_varint_ = col_[9];
  pred_pc_ = rd_u64(base + 4);
  load_addr_ = rd_u64(base + 12);
  load_delta_ = rd_u64(base + 20);
  store_addr_ = rd_u64(base + 28);
  store_delta_ = rd_u64(base + 36);
  count_ = n;

  obs::Registry& reg = obs::Registry::instance();
  reg.counter("trace.blocks_read").increment();
  reg.counter("trace.decode_records").add(n);
  reg.counter("trace.decode_bytes").add(avail);
  (void)decode_us_histogram();  // first lookup here, never in the destructor
  decode_ns_ = ns_since(start);
  timed_ = true;
}

size_t BlockDecoder::decode(TraceRecord* out, size_t max) {
  const auto start = std::chrono::steady_clock::now();
  const size_t n = std::min<size_t>(max, count_ - done_);
  // The cursors and coder state live in locals for the loop (the record
  // stores could otherwise alias the members and force reloads); every
  // read below was proven in bounds by open().
  const uint8_t* const kinds = col_[0];
  const uint8_t* const pc_flags = col_[1];
  const uint8_t* const taken = col_[3];
  const uint8_t* const target_flags = col_[4];
  const uint8_t* const load_flags = col_[6];
  const uint8_t* const store_flags = col_[8];
  const uint8_t* const mem_sizes = col_[10];
  const uint8_t* pc_varint = pc_varint_;
  const uint8_t* target_varint = target_varint_;
  const uint8_t* load_varint = load_varint_;
  const uint8_t* store_varint = store_varint_;
  uint32_t i = done_;
  uint32_t nb = branches_;
  uint32_t nl = loads_;
  uint32_t ns = stores_;
  uint64_t pred_pc = pred_pc_;
  uint64_t load_addr = load_addr_;
  uint64_t load_delta = load_delta_;
  uint64_t store_addr = store_addr_;
  uint64_t store_delta = store_delta_;
  for (size_t k = 0; k < n; ++k, ++i) {
    TraceRecord rec;
    rec.kind = static_cast<RecordKind>(code_at(kinds, i));
    rec.pc = pred_pc;
    if (bit_at(pc_flags, i)) rec.pc += scale_decode(read_varint(pc_varint));
    pred_pc = rec.pc + isa::kInstBytes;
    switch (rec.kind) {
      case RecordKind::kBranch:
        rec.taken = bit_at(taken, nb);
        rec.next_pc = pred_pc;
        if (bit_at(target_flags, nb)) {
          rec.next_pc += scale_decode(read_varint(target_varint));
        }
        ++nb;
        pred_pc = rec.next_pc;
        break;
      case RecordKind::kLoad:
        if (bit_at(load_flags, nl)) {
          load_delta +=
              static_cast<uint64_t>(unzigzag(read_varint(load_varint)));
        }
        load_addr += load_delta;
        rec.addr = load_addr;
        rec.size = static_cast<uint8_t>(1u << code_at(mem_sizes, nl + ns));
        ++nl;
        break;
      case RecordKind::kStore:
        if (bit_at(store_flags, ns)) {
          store_delta +=
              static_cast<uint64_t>(unzigzag(read_varint(store_varint)));
        }
        store_addr += store_delta;
        rec.addr = store_addr;
        rec.size = static_cast<uint8_t>(1u << code_at(mem_sizes, nl + ns));
        ++ns;
        break;
      case RecordKind::kPlain:
        break;
    }
    out[k] = rec;
  }
  done_ = i;
  branches_ = nb;
  loads_ = nl;
  stores_ = ns;
  pc_varint_ = pc_varint;
  target_varint_ = target_varint;
  load_varint_ = load_varint;
  store_varint_ = store_varint;
  pred_pc_ = pred_pc;
  load_addr_ = load_addr;
  load_delta_ = load_delta;
  store_addr_ = store_addr;
  store_delta_ = store_delta;
  decode_ns_ += ns_since(start);
  return n;
}

std::vector<TraceRecord> decode_block(const FileView& file, size_t b) {
  BlockDecoder decoder;
  decoder.open(file, b);
  std::vector<TraceRecord> out(decoder.remaining());
  decoder.decode(out.data(), out.size());
  return out;
}

std::array<uint64_t, kTraceV2Columns> column_bytes(const FileView& file) {
  std::array<uint64_t, kTraceV2Columns> sums{};
  for (const BlockIndexEntry& entry : file.blocks) {
    const uint8_t* base = file.bytes.data() + entry.offset;
    for (size_t c = 0; c < kTraceV2Columns; ++c) {
      sums[c] += rd_u32(base + 44 + 4 * c);
    }
  }
  return sums;
}

}  // namespace v2

// ---------------------------------------------------------------------------
// Writer side
// ---------------------------------------------------------------------------

TraceWriter::TraceWriter(const std::string& path, const TraceMeta& meta,
                         uint32_t block_len)
    : out_(path, std::ios::binary | std::ios::trunc),
      path_(path),
      meta_(meta),
      block_len_(block_len),
      pred_pc_(meta.base_pc) {
  if (!out_) {
    throw std::runtime_error("TraceWriter: cannot open " + path);
  }
  if (block_len_ == 0) {
    throw std::invalid_argument("TraceWriter: zero block length");
  }
  pending_.reserve(block_len_);
  // Sentinel header; finish() rewrites it with the real counts. An
  // unfinished file keeps the sentinel, so readers reject it.
  const std::vector<uint8_t> hdr =
      encode_header(meta_, block_len_, kUnfinishedRecordCount, 0, {});
  out_.write(reinterpret_cast<const char*>(hdr.data()),
             static_cast<std::streamsize>(hdr.size()));
}

void TraceWriter::append(const TraceRecord& rec) {
  pending_.push_back(rec);
  if (pending_.size() >= block_len_) flush_block();
}

void TraceWriter::flush_block() {
  if (pending_.empty()) return;

  std::vector<uint8_t> block;
  put_u32(block, static_cast<uint32_t>(pending_.size()));
  put_u64(block, pred_pc_);
  put_u64(block, load_addr_);
  put_u64(block, load_delta_);
  put_u64(block, store_addr_);
  put_u64(block, store_delta_);

  CodePacker kinds;
  BitPacker pc_flags;
  std::vector<uint8_t> pc_deltas;
  BitPacker taken;
  BitPacker target_flags;
  std::vector<uint8_t> target_deltas;
  BitPacker load_flags;
  std::vector<uint8_t> load_deltas;
  BitPacker store_flags;
  std::vector<uint8_t> store_deltas;
  CodePacker mem_sizes;

  for (const TraceRecord& rec : pending_) {
    kinds.push(static_cast<uint8_t>(rec.kind));
    const uint64_t d = rec.pc - pred_pc_;
    pc_flags.push(d != 0);
    if (d != 0) put_varint(pc_deltas, scale_encode(d));
    if (rec.kind == RecordKind::kBranch) {
      taken.push(rec.taken);
      const uint64_t td = rec.next_pc - (rec.pc + isa::kInstBytes);
      target_flags.push(td != 0);
      if (td != 0) put_varint(target_deltas, scale_encode(td));
      pred_pc_ = rec.next_pc;
    } else {
      pred_pc_ = rec.pc + isa::kInstBytes;
      if (rec.kind == RecordKind::kLoad) {
        const uint64_t delta = rec.addr - load_addr_;
        const uint64_t dd = delta - load_delta_;
        load_flags.push(dd != 0);
        if (dd != 0) {
          put_varint(load_deltas, zigzag(static_cast<int64_t>(dd)));
        }
        load_delta_ = delta;
        load_addr_ = rec.addr;
        mem_sizes.push(log2_size(rec.size));
      } else if (rec.kind == RecordKind::kStore) {
        const uint64_t delta = rec.addr - store_addr_;
        const uint64_t dd = delta - store_delta_;
        store_flags.push(dd != 0);
        if (dd != 0) {
          put_varint(store_deltas, zigzag(static_cast<int64_t>(dd)));
        }
        store_delta_ = delta;
        store_addr_ = rec.addr;
        mem_sizes.push(log2_size(rec.size));
      }
    }
  }

  const std::array<const std::vector<uint8_t>*, kTraceV2Columns> raw = {
      &kinds.bytes(),        &pc_flags.bytes(),    &pc_deltas,
      &taken.bytes(),        &target_flags.bytes(), &target_deltas,
      &load_flags.bytes(),   &load_deltas,          &store_flags.bytes(),
      &store_deltas,         &mem_sizes.bytes()};
  // Each non-empty column is framed as a codec byte plus the body; the
  // writer keeps whichever of raw / LZ is smaller. Empty columns stay at
  // zero bytes (no codec byte).
  std::array<std::vector<uint8_t>, kTraceV2Columns> payloads;
  for (size_t c = 0; c < kTraceV2Columns; ++c) {
    const std::vector<uint8_t>& col = *raw[c];
    if (col.empty()) continue;
    std::vector<uint8_t> lz = lz_compress(col.data(), col.size());
    if (lz.size() < col.size()) {
      payloads[c].reserve(lz.size() + 1);
      payloads[c].push_back(kCodecLz);
      payloads[c].insert(payloads[c].end(), lz.begin(), lz.end());
    } else {
      payloads[c].reserve(col.size() + 1);
      payloads[c].push_back(kCodecRaw);
      payloads[c].insert(payloads[c].end(), col.begin(), col.end());
    }
  }
  for (const auto& col : payloads) {
    put_u32(block, static_cast<uint32_t>(col.size()));
  }
  for (const auto& col : payloads) {
    block.insert(block.end(), col.begin(), col.end());
  }
  const uint32_t crc = util::crc32(block.data(), block.size());
  block.insert(block.end(), kCrcFooterMagic, kCrcFooterMagic + 4);
  put_u32(block, crc);

  put_u64(index_, flushed_);
  put_u64(index_, static_cast<uint64_t>(out_.tellp()));
  put_u32(index_, static_cast<uint32_t>(pending_.size()));
  out_.write(reinterpret_cast<const char*>(block.data()),
             static_cast<std::streamsize>(block.size()));
  flushed_ += pending_.size();
  pending_.clear();
}

void TraceWriter::finish(
    const std::array<uint64_t, isa::kNumLogicalRegs>& final_regs,
    uint64_t final_digest) {
  if (finished_) return;
  flush_block();
  const uint64_t index_offset = static_cast<uint64_t>(out_.tellp());

  const std::vector<uint8_t> hdr = encode_header(
      meta_, block_len_, flushed_, final_digest, final_regs);

  const uint64_t n_blocks = index_.size() / v2::kIndexEntryBytes;
  std::vector<uint8_t> idx = std::move(index_);
  put_u64(idx, n_blocks);
  put_u64(idx, index_offset);
  idx.insert(idx.end(), kIndexMagic, kIndexMagic + 8);

  // The index CRC covers the final header plus the index region, so a
  // seeked open validates everything it trusts without touching blocks.
  uint32_t icrc = util::crc32(hdr.data(), hdr.size());
  icrc = util::crc32(idx.data(), idx.size(), icrc);
  idx.insert(idx.end(), kCrcFooterMagic, kCrcFooterMagic + 4);
  put_u32(idx, icrc);

  out_.write(reinterpret_cast<const char*>(idx.data()),
             static_cast<std::streamsize>(idx.size()));
  out_.seekp(0);
  out_.write(reinterpret_cast<const char*>(hdr.data()),
             static_cast<std::streamsize>(hdr.size()));
  out_.close();
  if (!out_) throw std::runtime_error("TraceWriter: write failed");
  // Standard whole-file footer last, so blob-level tools (read_blob_file,
  // strict-mode audits) see a well-formed CRC1 blob.
  append_crc_footer(path_);
  finished_ = true;
}

const char* trace_v2_column_name(size_t col) {
  static constexpr const char* kNames[kTraceV2Columns] = {
      "kinds",        "pc_flags",      "pc_deltas",   "taken",
      "target_flags", "target_deltas", "load_flags",  "load_deltas",
      "store_flags",  "store_deltas",  "mem_sizes"};
  return col < kTraceV2Columns ? kNames[col] : "?";
}

}  // namespace cfir::trace
