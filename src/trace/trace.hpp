// Trace capture / replay: a compact, versioned binary format for the
// committed instruction stream (PCs, branch outcomes, load/store
// addresses) of one workload run.
//
// Motivation (see README "Trace subsystem"): every figure bench used to
// re-execute each workload from instruction zero. Recording the committed
// stream once makes runs persistable, shareable and replayable — replay
// re-executes the reference interpreter under trace verification, so a
// stored trace doubles as an architectural regression artifact.
//
// Format, version 1 (all integers little-endian):
//
//   header:  magic "CFIRTRC1" | u32 version | u32 reserved
//            | u64 record_count | u64 base_pc | u64 final_digest
//            | 64 x u64 final architectural registers
//            | u32 scale | u32 name_len | name bytes
//   records: one per retired instruction —
//            tag byte: bits 0-1 kind (0 plain, 1 branch, 2 load, 3 store)
//                      bit  2   branch taken
//                      bits 3-4 log2(access bytes) for loads/stores
//            zigzag-varint pc delta from the *predicted* pc
//              (previous pc + 4; sequential code costs 1 byte)
//            branch: zigzag-varint delta of actual next pc from pc + 4
//            load/store: zigzag-varint address delta from the previous
//              memory access address
//
// `record_count`, `final_digest` and the final registers are patched into
// the header by TraceWriter::finish, so a trace file is self-validating:
// replay can check the reconstructed architectural state without re-running
// the original simulation. finish() then appends the shared CRC-32 footer
// (trace/blob.hpp), verified by TraceReader at open; a file without it is
// rejected as truncated.
//
// Format, version 2 ("CFIRTRC2", the default writer format): the same
// header (block capacity in the v1 reserved slot), then the record stream
// split into fixed-capacity blocks whose fields are stored as
// independently coded columns — each block carries the coder state it
// starts from plus its own CRC-32 footer, and the file ends in a
// CRC-protected block index mapping record ranges to file offsets, so
// TraceReader::seek_to lands on a block boundary and decodes only from
// there. Roughly 3-4x smaller than v1 and random-access; full byte-level
// layout in docs/trace-format.md and src/trace/trace_v2.hpp. Both
// versions load through the same TraceReader. The `CFIR_TRACE_FORMAT`
// env knob (v1|v2) selects the default writer format.
#pragma once

#include <array>
#include <cstdint>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "isa/engine.hpp"
#include "isa/interpreter.hpp"
#include "isa/program.hpp"

namespace cfir::trace {

inline constexpr char kTraceMagic[8] = {'C', 'F', 'I', 'R',
                                        'T', 'R', 'C', '1'};
inline constexpr uint32_t kTraceVersion = 1;
inline constexpr char kTraceMagicV2[8] = {'C', 'F', 'I', 'R',
                                          'T', 'R', 'C', '2'};
inline constexpr uint32_t kTraceVersionV2 = 2;
/// Default CFIRTRC2 block capacity in records. The header stores the
/// actual value, so readers never assume it.
inline constexpr uint32_t kTraceBlockLen = 65536;
/// Number of per-field columns in a CFIRTRC2 block.
inline constexpr size_t kTraceV2Columns = 11;
/// Display name of CFIRTRC2 column `col` (trace_tool info).
[[nodiscard]] const char* trace_v2_column_name(size_t col);
/// record_count value written at open and replaced by finish(); a file
/// still carrying it was interrupted mid-recording and is rejected.
inline constexpr uint64_t kUnfinishedRecordCount = UINT64_MAX;

/// On-disk trace format selector for writers.
enum class TraceFormat : uint8_t {
  kV1 = 1,  ///< row-oriented CFIRTRC1 (the oracle / legacy path)
  kV2 = 2,  ///< columnar seekable CFIRTRC2
};

/// Writer format from `CFIR_TRACE_FORMAT` ("v1" or "v2"); unset/empty
/// means v2. Anything else throws, so a typo cannot silently fall back.
[[nodiscard]] TraceFormat trace_format_from_env();

namespace v2 {
struct FileView;
class BlockDecoder;
class BlockWriter;
}  // namespace v2

/// Directory trace files default into: CFIR_TRACE_DIR, or "." when unset.
[[nodiscard]] std::string env_trace_dir();

enum class RecordKind : uint8_t {
  kPlain = 0,   ///< ALU / jumps / calls / rets
  kBranch = 1,  ///< conditional branch (taken + target recorded)
  kLoad = 2,
  kStore = 3,
};

/// One retired instruction.
struct TraceRecord {
  uint64_t pc = 0;
  RecordKind kind = RecordKind::kPlain;
  bool taken = false;     ///< kBranch only
  uint64_t next_pc = 0;   ///< kBranch only: actual successor pc
  uint64_t addr = 0;      ///< kLoad/kStore only
  uint8_t size = 0;       ///< kLoad/kStore only: access bytes (1/2/4/8)

  bool operator==(const TraceRecord&) const = default;
};

// The engine's retired-instruction events and trace records are the same
// data; the enum values line up by design so conversion is a cast.
static_assert(static_cast<int>(RecordKind::kPlain) ==
              static_cast<int>(isa::EventKind::kPlain));
static_assert(static_cast<int>(RecordKind::kBranch) ==
              static_cast<int>(isa::EventKind::kBranch));
static_assert(static_cast<int>(RecordKind::kLoad) ==
              static_cast<int>(isa::EventKind::kLoad));
static_assert(static_cast<int>(RecordKind::kStore) ==
              static_cast<int>(isa::EventKind::kStore));

[[nodiscard]] inline TraceRecord to_trace_record(const isa::StepEvent& ev) {
  TraceRecord rec;
  rec.pc = ev.pc;
  rec.kind = static_cast<RecordKind>(ev.kind);
  rec.taken = ev.taken;
  rec.next_pc = ev.next_pc;
  rec.addr = ev.addr;
  rec.size = ev.size;
  return rec;
}

/// Workload identity stored in the header so `replay` / `info` can rebuild
/// the program without out-of-band knowledge.
struct TraceMeta {
  std::string workload;
  uint32_t scale = 1;
  uint64_t base_pc = 0;
};

class TraceWriter {
 public:
  /// Creates/truncates `path` and writes the header (counts zeroed).
  /// `format` defaults to the CFIR_TRACE_FORMAT knob (v2 when unset);
  /// `block_len` is the CFIRTRC2 block capacity (0 = kTraceBlockLen,
  /// ignored for v1).
  TraceWriter(const std::string& path, const TraceMeta& meta,
              TraceFormat format = trace_format_from_env(),
              uint32_t block_len = 0);
  ~TraceWriter();
  TraceWriter(const TraceWriter&) = delete;
  TraceWriter& operator=(const TraceWriter&) = delete;

  void append(const TraceRecord& rec);

  /// Patches record count, final registers and memory digest into the
  /// header and closes the file. Idempotent.
  void finish(const std::array<uint64_t, isa::kNumLogicalRegs>& final_regs,
              uint64_t final_digest);

  [[nodiscard]] uint64_t records() const { return records_; }
  [[nodiscard]] TraceFormat format() const { return format_; }

 private:
  void put_varint(uint64_t v);

  TraceFormat format_;
  std::unique_ptr<v2::BlockWriter> v2_;  ///< set iff format_ == kV2
  std::ofstream out_;
  std::string path_;  ///< finish() re-reads the file to append the CRC footer
  uint64_t records_ = 0;
  uint64_t prev_pc_ = 0;  ///< pc of the previous record
  bool have_prev_ = false;
  uint64_t base_pc_ = 0;
  uint64_t last_addr_ = 0;
  bool finished_ = false;
};

/// Records a TraceReader decodes per refill of its span buffer: 256 x 40 B
/// stays well inside L1 while amortizing the per-refill bookkeeping.
inline constexpr size_t kTraceSpanRecords = 256;

/// Reads both trace formats behind one interface: the leading magic picks
/// the codec at open. v1 streams records off disk; v2 buffers the file,
/// validates only the header + block index, and decodes blocks on demand
/// (each fully checked before its first record is returned), which is what
/// makes seek_to cheap. Records arrive through a small reused span buffer,
/// never a whole decoded block.
class TraceReader {
 public:
  /// Opens and validates the header; throws the typed trace/errors.hpp
  /// classes on a bad magic / version / corrupt or truncated file.
  explicit TraceReader(const std::string& path);
  ~TraceReader();
  TraceReader(const TraceReader&) = delete;
  TraceReader& operator=(const TraceReader&) = delete;

  [[nodiscard]] const TraceMeta& meta() const { return meta_; }
  [[nodiscard]] uint64_t record_count() const { return record_count_; }
  [[nodiscard]] uint64_t final_digest() const { return final_digest_; }
  [[nodiscard]] const std::array<uint64_t, isa::kNumLogicalRegs>&
  final_regs() const {
    return final_regs_;
  }

  /// Span read: points `out` at up to `max` consecutive records starting at
  /// position() and advances past them. Returns how many — at least one
  /// unless the stream is at its end or `max` is 0 — and never more than
  /// kTraceSpanRecords. The records live in the reader's span buffer and
  /// stay valid until the next call on this reader.
  size_t read_span(const TraceRecord*& out, uint64_t max);

  /// Reads the next record; returns false at end of stream. A one-record
  /// read_span.
  bool next(TraceRecord& out);

  /// On-disk format version of the open file (1 or 2).
  [[nodiscard]] uint32_t format_version() const { return version_; }
  /// Index of the record the next next() call returns.
  [[nodiscard]] uint64_t position() const { return read_; }

  /// Repositions the stream so the next next() returns record
  /// `inst_index`. `inst_index == record_count()` is a valid end-of-stream
  /// position; anything past it throws std::out_of_range. O(1) + one
  /// block decode for v2 (lands on the covering block boundary); for v1
  /// it falls back to sequential decode (rewinding first when behind), so
  /// the interface stays format-agnostic.
  void seek_to(uint64_t inst_index);

  /// CFIRTRC2 block geometry: count of blocks in the file and the block
  /// capacity from the header. A v1 file reports 0 for both.
  [[nodiscard]] size_t block_count() const;
  [[nodiscard]] uint32_t block_len() const;
  /// First record index of block `b` (v2 only).
  [[nodiscard]] uint64_t block_first_record(size_t b) const;
  /// Decodes the whole of block `b` (v2 only; throws on v1) with the same
  /// checks as a span read. Pure and thread-safe — bbv_from_trace fans
  /// block decodes out on the sim::parallel_for pool. Each call counts one
  /// `trace.blocks_read`.
  [[nodiscard]] std::vector<TraceRecord> decode_block(size_t b) const;
  /// Per-column compressed payload bytes summed over all blocks
  /// (trace_tool info; v2 only — zeros for v1).
  [[nodiscard]] std::array<uint64_t, kTraceV2Columns> column_bytes() const;

 private:
  [[nodiscard]] uint64_t get_varint();
  void decode_v1(TraceRecord& out);
  void refill_v2();
  void drain_telemetry();

  std::ifstream in_;
  std::unique_ptr<v2::FileView> v2_;  ///< set iff version_ == 2
  uint32_t version_ = 1;
  TraceMeta meta_;
  uint64_t record_count_ = 0;
  uint64_t final_digest_ = 0;
  std::array<uint64_t, isa::kNumLogicalRegs> final_regs_{};
  uint64_t read_ = 0;
  std::streamoff data_start_ = 0;  ///< v1: first record byte (for rewinds)
  uint64_t prev_pc_ = 0;
  bool have_prev_ = false;
  uint64_t last_addr_ = 0;
  std::unique_ptr<v2::BlockDecoder> decoder_;  ///< v2: the open block
  /// Span buffer: records [span_first_, span_first_ + span_len_).
  std::vector<TraceRecord> span_;
  uint64_t span_first_ = 0;
  size_t span_len_ = 0;
  int64_t open_us_ = 0;     ///< decode-throughput telemetry epoch
  bool telemetry_done_ = false;
};

/// Runs the reference interpreter over `program` (fresh memory, data image
/// applied), recording every retired instruction to `path`. Stops at HALT
/// or after `max_insts`. Returns the final architectural state. `format`
/// and `block_len` pass through to TraceWriter.
isa::InterpResult record_interpreter(const isa::Program& program,
                                     const std::string& path,
                                     const TraceMeta& meta,
                                     uint64_t max_insts = UINT64_MAX,
                                     TraceFormat format =
                                         trace_format_from_env(),
                                     uint32_t block_len = 0);

/// Trace-driven re-execution: replays `program` on the interpreter while
/// verifying every retired instruction against the stored records, then
/// checks the final registers and memory digest against the header.
struct ReplayResult {
  bool match = false;
  uint64_t replayed = 0;        ///< records consumed
  std::string mismatch;         ///< empty when match
  isa::InterpResult final_state;
};
ReplayResult replay_trace(const isa::Program& program,
                          const std::string& path);
/// Same, driving an already-opened reader (no record consumed yet) —
/// callers that inspected meta() first avoid re-parsing the header.
ReplayResult replay_trace(const isa::Program& program, TraceReader& reader);

}  // namespace cfir::trace
