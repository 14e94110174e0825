// The CFIRTRC2 read path (src/trace/trace_v2.cpp v2::BlockDecoder and
// TraceReader's span reads) and the CRC-32 it checks blocks with:
//
//  - over random programs, block lengths, chunk sizes and seek points,
//    BlockDecoder chunks, TraceReader::read_span and next() all yield
//    exactly the records decode_block does;
//  - a block whose CRC is valid but one of whose columns is one byte
//    short or one byte long is rejected — CorruptFileError — before the
//    first span of that block is returned, while every earlier block still
//    streams;
//  - util::crc32 (slicing-by-8) equals the standard check value and a
//    bitwise reference at every length 0-64 and every alignment, and
//    chains incrementally.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <random>
#include <string>
#include <vector>

#include "helpers.hpp"
#include "trace/errors.hpp"
#include "trace/trace.hpp"
#include "trace/trace_v2.hpp"
#include "util/crc32.hpp"

namespace cfir::trace {
namespace {

class TempFile {
 public:
  explicit TempFile(const std::string& tag)
      : path_(std::string(::testing::TempDir()) + "cfir_dec_" + tag + "_" +
              std::to_string(reinterpret_cast<uintptr_t>(this))) {}
  ~TempFile() { std::remove(path_.c_str()); }
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
};

std::vector<uint8_t> file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<uint8_t>((std::istreambuf_iterator<char>(in)),
                              std::istreambuf_iterator<char>());
}

void write_bytes(const std::string& path, const std::vector<uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

/// Every record of a v2 file, block by block through decode_block.
std::vector<TraceRecord> all_by_blocks(const TraceReader& reader) {
  std::vector<TraceRecord> out;
  for (size_t b = 0; b < reader.block_count(); ++b) {
    const std::vector<TraceRecord> block = reader.decode_block(b);
    out.insert(out.end(), block.begin(), block.end());
  }
  return out;
}

/// Reads [position(), position() + n) through span reads of random size.
std::vector<TraceRecord> read_spans(TraceReader& reader, uint64_t n,
                                    std::mt19937_64& gen) {
  std::vector<TraceRecord> out;
  while (out.size() < n) {
    const uint64_t want =
        std::min<uint64_t>(n - out.size(), 1 + gen() % 700);
    const TraceRecord* span = nullptr;
    const size_t got = reader.read_span(span, want);
    EXPECT_GT(got, size_t{0});
    EXPECT_LE(got, std::min<uint64_t>(want, kTraceSpanRecords));
    if (got == 0) break;
    out.insert(out.end(), span, span + got);
  }
  return out;
}

TEST(TraceDecoder, SpansNextAndChunksMatchDecodeBlock) {
  for (uint64_t seed = 1; seed <= 60; ++seed) {
    std::mt19937_64 gen(seed * 104729);
    // Odd seeds: short random programs (every record kind, few blocks);
    // even seeds: figure-1 loops long enough for many blocks and spans.
    const isa::Program program =
        seed % 2 == 1 ? cfir::testing::random_program(seed)
                      : cfir::testing::figure1_program(64 + gen() % 400, 50,
                                                       seed);
    const uint32_t block_len = 1 + static_cast<uint32_t>(gen() % 400);
    TempFile file("prop" + std::to_string(seed));
    TraceMeta meta;
    meta.workload = "random";
    record_interpreter(program, file.path(), meta, UINT64_MAX, block_len);

    TraceReader reader(file.path());
    const std::vector<TraceRecord> all = all_by_blocks(reader);
    ASSERT_EQ(all.size(), reader.record_count()) << "seed " << seed;

    // The decoder itself, in random chunk sizes per block.
    const v2::FileView view = v2::open_file(file.path());
    v2::BlockDecoder decoder;
    std::vector<TraceRecord> chunked;
    std::vector<TraceRecord> buf(512);
    for (size_t b = 0; b < view.blocks.size(); ++b) {
      decoder.open(view, b);
      EXPECT_EQ(decoder.position(), view.blocks[b].first_record);
      EXPECT_EQ(decoder.remaining(), view.blocks[b].count);
      for (;;) {
        const size_t got = decoder.decode(buf.data(), 1 + gen() % buf.size());
        if (got == 0) break;
        chunked.insert(chunked.end(), buf.begin(), buf.begin() + got);
      }
      EXPECT_EQ(decoder.remaining(), 0u);
    }
    ASSERT_EQ(chunked, all) << "seed " << seed;

    // Sequential next() and sequential span reads.
    TraceReader by_next(file.path());
    TraceRecord rec;
    for (const TraceRecord& want : all) {
      ASSERT_TRUE(by_next.next(rec)) << "seed " << seed;
      ASSERT_EQ(rec, want) << "seed " << seed;
    }
    EXPECT_FALSE(by_next.next(rec));
    TraceReader by_span(file.path());
    EXPECT_EQ(read_spans(by_span, all.size(), gen), all) << "seed " << seed;
    const TraceRecord* span = nullptr;
    EXPECT_EQ(by_span.read_span(span, 10), size_t{0});

    // Random seeks, forward and backward, then a mix of spans and next().
    for (int probe = 0; probe < 8; ++probe) {
      const uint64_t target = gen() % (all.size() + 1);
      reader.seek_to(target);
      const uint64_t tail =
          std::min<uint64_t>(all.size() - target, gen() % 900);
      std::vector<TraceRecord> got;
      if (probe % 2 == 0) {
        got = read_spans(reader, tail, gen);
      } else {
        for (uint64_t i = 0; i < tail && reader.next(rec); ++i) {
          got.push_back(rec);
        }
      }
      ASSERT_EQ(got, std::vector<TraceRecord>(
                         all.begin() + static_cast<std::ptrdiff_t>(target),
                         all.begin() +
                             static_cast<std::ptrdiff_t>(target + tail)))
          << "seed " << seed << " target " << target;
      EXPECT_EQ(reader.position(), target + tail);
    }
    EXPECT_EQ(reader.read_span(span, 0), size_t{0});
  }
}

/// A CFIRTRC2 file taken apart into header, blocks and index, so a test
/// can rewrite one block and reassemble a file whose block CRC, index and
/// index CRC are all consistent again.
struct SplitTrace {
  std::vector<uint8_t> header;
  std::vector<std::vector<uint8_t>> blocks;
  std::vector<uint64_t> first_records;
  std::vector<uint32_t> counts;

  static constexpr size_t kFixed = 4 + 5 * 8;  ///< count + coder bases
  static constexpr size_t kLensAt = kFixed;    ///< 11 x u32 column lengths

  explicit SplitTrace(const std::vector<uint8_t>& file) {
    const auto u64_at = [&](size_t at) {
      uint64_t v;
      std::memcpy(&v, file.data() + at, 8);
      return v;
    };
    const size_t n = u64_at(file.size() - 40);
    const size_t index_offset = u64_at(file.size() - 32);
    std::vector<uint64_t> offsets;
    for (size_t i = 0; i < n; ++i) {
      const size_t e = index_offset + i * v2::kIndexEntryBytes;
      first_records.push_back(u64_at(e));
      offsets.push_back(u64_at(e + 8));
      uint32_t count;
      std::memcpy(&count, file.data() + e + 16, 4);
      counts.push_back(count);
    }
    offsets.push_back(index_offset);
    header.assign(file.begin(),
                  file.begin() + static_cast<std::ptrdiff_t>(offsets[0]));
    for (size_t i = 0; i < n; ++i) {
      blocks.emplace_back(
          file.begin() + static_cast<std::ptrdiff_t>(offsets[i]),
          file.begin() + static_cast<std::ptrdiff_t>(offsets[i + 1]));
    }
  }

  [[nodiscard]] uint32_t column_len(size_t b, size_t c) const {
    uint32_t len;
    std::memcpy(&len, blocks[b].data() + kLensAt + 4 * c, 4);
    return len;
  }

  /// Makes column `c` of block `b` one byte shorter (drops its last byte)
  /// or longer (appends a zero byte), fixing the length field and CRC.
  void resize_column(size_t b, size_t c, bool longer) {
    std::vector<uint8_t>& blk = blocks[b];
    size_t end = kFixed + 4 * kTraceV2Columns;
    for (size_t k = 0; k <= c; ++k) end += column_len(b, k);
    const uint32_t len = longer ? column_len(b, c) + 1 : column_len(b, c) - 1;
    std::memcpy(blk.data() + kLensAt + 4 * c, &len, 4);
    if (longer) {
      blk.insert(blk.begin() + static_cast<std::ptrdiff_t>(end), 0);
    } else {
      blk.erase(blk.begin() + static_cast<std::ptrdiff_t>(end - 1));
    }
    const size_t body = blk.size() - 8;
    const uint32_t crc = util::crc32(blk.data(), body);
    std::memcpy(blk.data() + body + 4, &crc, 4);
  }

  [[nodiscard]] std::vector<uint8_t> assemble() const {
    std::vector<uint8_t> out = header;
    std::vector<uint64_t> offsets;
    for (const auto& blk : blocks) {
      offsets.push_back(out.size());
      out.insert(out.end(), blk.begin(), blk.end());
    }
    const uint64_t index_offset = out.size();
    const auto put = [&](const void* p, size_t n) {
      const auto* bytes = static_cast<const uint8_t*>(p);
      out.insert(out.end(), bytes, bytes + n);
    };
    for (size_t i = 0; i < blocks.size(); ++i) {
      put(&first_records[i], 8);
      put(&offsets[i], 8);
      put(&counts[i], 4);
    }
    const uint64_t n = blocks.size();
    put(&n, 8);
    put(&index_offset, 8);
    put("CFIRIDX2", 8);
    uint32_t icrc = util::crc32(header.data(), header.size());
    icrc = util::crc32(out.data() + index_offset, out.size() - index_offset,
                       icrc);
    put("CRC1", 4);
    put(&icrc, 4);
    const uint32_t file_crc = util::crc32(out.data(), out.size());
    put("CRC1", 4);
    put(&file_crc, 4);
    return out;
  }
};

TEST(TraceDecoder, ColumnOneByteOffIsRejectedBeforeTheBlocksFirstSpan) {
  const isa::Program program = cfir::testing::figure1_program(512, 50, 11);
  TempFile file("column");
  TraceMeta meta;
  meta.workload = "figure1";
  record_interpreter(program, file.path(), meta, UINT64_MAX, 61);
  const std::vector<uint8_t> good = file_bytes(file.path());
  std::vector<TraceRecord> all;
  {
    TraceReader reader(file.path());
    TraceRecord rec;
    while (reader.next(rec)) all.push_back(rec);
  }
  const SplitTrace pristine(good);
  ASSERT_GT(pristine.blocks.size(), size_t{4});
  // Sanity: the reassembly itself is faithful.
  ASSERT_EQ(pristine.assemble(), good);

  const size_t b = pristine.blocks.size() / 2;
  const uint64_t first = pristine.first_records[b];
  int raw_columns = 0;
  for (size_t c = 0; c < kTraceV2Columns; ++c) {
    const uint32_t len = pristine.column_len(b, c);
    if (len < 2) continue;  // codec byte only: nothing to cut
    // Codec byte 0 is a raw column: the one-byte change reaches the
    // validation pass itself, not the LZ framing.
    const size_t col_at = [&] {
      size_t at = SplitTrace::kFixed + 4 * kTraceV2Columns;
      for (size_t k = 0; k < c; ++k) at += pristine.column_len(b, k);
      return at;
    }();
    if (pristine.blocks[b][col_at] == 0) ++raw_columns;
    for (const bool longer : {false, true}) {
      SplitTrace bad = pristine;
      bad.resize_column(b, c, longer);
      write_bytes(file.path(), bad.assemble());
      const std::string what = std::string(trace_v2_column_name(c)) +
                               (longer ? " +1 byte" : " -1 byte");

      // Streaming from the start: every earlier block still decodes, and
      // the error fires before any record of block b is handed out.
      TraceReader reader(file.path());
      std::vector<TraceRecord> got;
      try {
        const TraceRecord* span = nullptr;
        while (const size_t n = reader.read_span(span, 1000)) {
          got.insert(got.end(), span, span + n);
        }
        ADD_FAILURE() << what << ": not rejected";
      } catch (const CorruptFileError&) {
      }
      EXPECT_EQ(got.size(), first) << what;
      EXPECT_TRUE(std::equal(got.begin(), got.end(), all.begin())) << what;

      // Seeking into the block, and whole-block decode, fail the same way.
      TraceReader seeker(file.path());
      seeker.seek_to(first + 1);
      TraceRecord rec;
      EXPECT_THROW(seeker.next(rec), CorruptFileError) << what;
      EXPECT_THROW((void)seeker.decode_block(b), CorruptFileError) << what;
    }
  }
  EXPECT_GE(raw_columns, 3) << "too few raw columns to exercise validation";
  write_bytes(file.path(), good);
  TraceReader reader(file.path());
  EXPECT_EQ(all_by_blocks(reader), all);
}

/// Bit-at-a-time CRC-32 (reflected 0xEDB88320): the definition the table
/// forms must reproduce.
uint32_t crc32_bitwise(const uint8_t* p, size_t n, uint32_t seed = 0) {
  uint32_t c = ~seed;
  for (size_t i = 0; i < n; ++i) {
    c ^= p[i];
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1u) != 0 ? (c >> 1) ^ 0xEDB88320u : c >> 1;
    }
  }
  return ~c;
}

TEST(Crc32, MatchesCheckValueAndBitwiseReference) {
  EXPECT_EQ(util::crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(util::crc32(nullptr, 0), 0u);

  std::mt19937_64 gen(2024);
  std::vector<uint8_t> buf(64 + 8 + 8);
  for (uint8_t& byte : buf) byte = static_cast<uint8_t>(gen());
  for (size_t align = 0; align < 8; ++align) {
    for (size_t len = 0; len <= 64; ++len) {
      const uint8_t* p = buf.data() + align;
      EXPECT_EQ(util::crc32(p, len), crc32_bitwise(p, len))
          << "len " << len << " align " << align;
      // Chaining from any split point equals one pass.
      const size_t split = len == 0 ? 0 : gen() % (len + 1);
      EXPECT_EQ(util::crc32(p + split, len - split, util::crc32(p, split)),
                crc32_bitwise(p, len))
          << "len " << len << " align " << align << " split " << split;
    }
  }
  std::vector<uint8_t> big(100000);
  for (uint8_t& byte : big) byte = static_cast<uint8_t>(gen());
  EXPECT_EQ(util::crc32(big.data(), big.size()),
            crc32_bitwise(big.data(), big.size()));
}

}  // namespace
}  // namespace cfir::trace
