// CFIRTRC2 internals: the columnar, block-compressed, seekable trace
// codec behind TraceWriter and TraceReader (trace/trace.hpp owns the
// public API and the format constants; trace_v2.cpp also defines
// TraceWriter's block encoder; docs/trace-format.md has the full
// byte-level layout).
//
// The committed-record stream is split into fixed-capacity blocks
// (`block_len` records, default trace.hpp kTraceBlockLen) and each block
// stores its records as independently coded per-field columns — kinds,
// pc-delta flags + varints, branch taken/target bits, per-kind memory
// address delta-of-delta streams, access widths. Every block carries the
// inter-block coder state it starts from (predicted pc, last load/store
// address and stride), so any block decodes with no earlier block — that
// is what makes the format seekable. Integrity is layered the same way:
// each block ends in its own CRC-32 footer (blob.hpp "CRC1" form),
// the block index + header are covered by an index CRC in the footer,
// and the file still ends with the standard whole-file CRC footer for
// blob-level tooling — which TraceReader deliberately does NOT verify at
// open, so opening and seeking stay O(index), never O(file) decode work.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "trace/trace.hpp"

namespace cfir::trace::v2 {

/// One block of the index footer: records [first_record,
/// first_record + count) live at absolute file offset `offset`.
struct BlockIndexEntry {
  uint64_t first_record = 0;
  uint64_t offset = 0;
  uint32_t count = 0;
};

/// Serialized size of one index entry (u64 + u64 + u32).
inline constexpr size_t kIndexEntryBytes = 20;

/// A validated, fully buffered CFIRTRC2 file: header fields, the block
/// index, and the raw bytes blocks decode out of. Opening validates the
/// header, the index footer and its CRC — but no block payload; those are
/// checked individually by BlockDecoder::open, so a reader that seeks only
/// pays for the blocks it touches.
struct FileView {
  TraceMeta meta;
  uint64_t record_count = 0;
  uint64_t final_digest = 0;
  std::array<uint64_t, isa::kNumLogicalRegs> final_regs{};
  uint32_t block_len = 0;     ///< block capacity in records
  uint64_t index_offset = 0;  ///< where the blocks region ends
  std::vector<BlockIndexEntry> blocks;
  std::vector<uint8_t> bytes;  ///< the entire file, one read at open
};

/// Opens and validates `path` as CFIRTRC2. Throws BadMagicError /
/// VersionError / CorruptFileError per the trace/errors.hpp contract (the
/// magic and version go through read_blob_header, so a retired CFIRTRC1
/// file is a VersionError); an unfinished file (sentinel record count)
/// throws std::runtime_error.
[[nodiscard]] FileView open_file(const std::string& path);

/// The one CFIRTRC2 block decoder, resumable so consumers stream a block
/// in small caller-sized chunks instead of materializing it.
///
/// open() does all of a block's checking up front: it verifies the block
/// CRC, unframes the columns (LZ bodies expand into scratch buffers reused
/// across blocks) and runs a validation pass that proves every column's
/// exact length from the record count, the kind counts, the flag
/// popcounts and the varint terminators. Any mismatch is a
/// CorruptFileError before a single record of the block is handed out.
/// decode() then expands records with no per-field bounds checks — the
/// validation pass already proved every read lands inside its column.
///
/// Each open() counts one `trace.blocks_read` plus the block's
/// records/bytes into the decode counters. The time spent inside open()
/// and the decode() calls of one block is one `trace.decode_us`
/// observation, made when the next block opens or the decoder is
/// destroyed. Not thread-safe; parallel decoders each own one.
class BlockDecoder {
 public:
  BlockDecoder() = default;
  ~BlockDecoder();
  BlockDecoder(const BlockDecoder&) = delete;
  BlockDecoder& operator=(const BlockDecoder&) = delete;

  /// Opens block `b` of `file` (which must outlive the decode): throws
  /// std::out_of_range past the last block and CorruptFileError on any
  /// integrity or structure failure, leaving no block open.
  void open(const FileView& file, size_t b);

  /// Decodes up to `max` next records of the open block into `out` and
  /// returns how many; 0 once the block is exhausted.
  size_t decode(TraceRecord* out, size_t max);

  /// Records of the open block not yet decoded.
  [[nodiscard]] uint32_t remaining() const { return count_ - done_; }
  /// Absolute index of the record the next decode() returns.
  [[nodiscard]] uint64_t position() const { return first_record_ + done_; }

 private:
  /// Observes the open block's decode time, once.
  void observe_decode_time() noexcept;

  /// LZ-expanded column bodies, grown on demand and reused across blocks.
  std::array<std::vector<uint8_t>, kTraceV2Columns> scratch_;
  /// Column bodies of the open block (file bytes or scratch_).
  std::array<const uint8_t*, kTraceV2Columns> col_{};

  uint64_t first_record_ = 0;
  uint32_t count_ = 0;
  uint32_t done_ = 0;
  // Decode cursors: branch / load / store records seen so far (they index
  // the per-kind bit and code columns) and the four varint read heads.
  uint32_t branches_ = 0;
  uint32_t loads_ = 0;
  uint32_t stores_ = 0;
  const uint8_t* pc_varint_ = nullptr;
  const uint8_t* target_varint_ = nullptr;
  const uint8_t* load_varint_ = nullptr;
  const uint8_t* store_varint_ = nullptr;
  // Inter-record coder state, seeded from the block header.
  uint64_t pred_pc_ = 0;
  uint64_t load_addr_ = 0;
  uint64_t load_delta_ = 0;
  uint64_t store_addr_ = 0;
  uint64_t store_delta_ = 0;
  /// Nanoseconds spent in open()/decode() on the open block, and whether
  /// they still await their `trace.decode_us` observation.
  uint64_t decode_ns_ = 0;
  bool timed_ = false;
};

/// Decodes the whole of block `b`: BlockDecoder::open plus one decode of
/// every record, with the same checks and counters. Pure function of the
/// FileView — safe to call from parallel workers.
[[nodiscard]] std::vector<TraceRecord> decode_block(const FileView& file,
                                                    size_t b);

/// Per-column compressed payload bytes summed over every block (walks
/// only the block headers — no payload decode). Order matches
/// trace_v2_column_name.
[[nodiscard]] std::array<uint64_t, kTraceV2Columns> column_bytes(
    const FileView& file);

}  // namespace cfir::trace::v2
