#include "trace/trace.hpp"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <stdexcept>

#include "mem/main_memory.hpp"
#include "obs/metrics.hpp"
#include "obs/tracer.hpp"
#include "trace/blob.hpp"
#include "trace/errors.hpp"
#include "trace/io.hpp"
#include "trace/trace_v2.hpp"

namespace cfir::trace {

namespace {

// Header field offsets (see the format comment in trace.hpp).
constexpr std::streamoff kOffRecordCount = 16;
constexpr std::streamoff kOffFinalDigest = 32;
constexpr std::streamoff kOffFinalRegs = 40;

constexpr uint64_t zigzag(int64_t v) {
  return (static_cast<uint64_t>(v) << 1) ^
         static_cast<uint64_t>(v >> 63);
}
constexpr int64_t unzigzag(uint64_t v) {
  return static_cast<int64_t>((v >> 1) ^ (~(v & 1) + 1));
}

constexpr uint8_t kKindMask = 0x3;
constexpr uint8_t kTakenBit = 0x4;
constexpr int kSizeShift = 3;

uint8_t log2_size(uint8_t bytes) {
  switch (bytes) {
    case 1: return 0;
    case 2: return 1;
    case 4: return 2;
    default: return 3;
  }
}

using io::get_raw;
using io::put_raw;

}  // namespace

std::string env_trace_dir() {
  const char* v = std::getenv("CFIR_TRACE_DIR");
  return (v == nullptr || *v == '\0') ? std::string(".") : std::string(v);
}

TraceFormat trace_format_from_env() {
  const char* v = std::getenv("CFIR_TRACE_FORMAT");
  if (v == nullptr || *v == '\0' || std::strcmp(v, "v2") == 0) {
    return TraceFormat::kV2;
  }
  if (std::strcmp(v, "v1") == 0) return TraceFormat::kV1;
  throw std::runtime_error(
      std::string("CFIR_TRACE_FORMAT must be 'v1' or 'v2', got '") + v +
      "'");
}

// ---------------------------------------------------------------------------
// TraceWriter
// ---------------------------------------------------------------------------

TraceWriter::TraceWriter(const std::string& path, const TraceMeta& meta,
                         TraceFormat format, uint32_t block_len)
    : format_(format),
      path_(path),
      prev_pc_(meta.base_pc),
      base_pc_(meta.base_pc) {
  if (format_ == TraceFormat::kV2) {
    v2_ = std::make_unique<v2::BlockWriter>(
        path, meta, block_len == 0 ? kTraceBlockLen : block_len);
    return;
  }
  out_.open(path, std::ios::binary | std::ios::trunc);
  if (!out_) {
    throw std::runtime_error("TraceWriter: cannot open " + path);
  }
  out_.write(kTraceMagic, sizeof(kTraceMagic));
  put_raw(out_, kTraceVersion);
  put_raw(out_, uint32_t{0});  // reserved
  put_raw(out_, kUnfinishedRecordCount);  // patched by finish()
  put_raw(out_, meta.base_pc);
  put_raw(out_, uint64_t{0});  // final_digest, patched by finish()
  for (int i = 0; i < isa::kNumLogicalRegs; ++i) put_raw(out_, uint64_t{0});
  put_raw(out_, meta.scale);
  put_raw(out_, static_cast<uint32_t>(meta.workload.size()));
  out_.write(meta.workload.data(),
             static_cast<std::streamsize>(meta.workload.size()));
}

TraceWriter::~TraceWriter() {
  if (!finished_ && out_.is_open()) {
    // Unfinished traces keep the sentinel record count written at open and
    // lack the CRC footer, so TraceReader rejects them instead of reading a
    // truncated stream.
    out_.close();
  }
}

void TraceWriter::put_varint(uint64_t v) {
  while (v >= 0x80) {
    out_.put(static_cast<char>((v & 0x7f) | 0x80));
    v >>= 7;
  }
  out_.put(static_cast<char>(v));
}

void TraceWriter::append(const TraceRecord& rec) {
  if (v2_) {
    v2_->append(rec);
    ++records_;
    return;
  }
  uint8_t tag = static_cast<uint8_t>(rec.kind) & kKindMask;
  if (rec.kind == RecordKind::kBranch && rec.taken) tag |= kTakenBit;
  if (rec.kind == RecordKind::kLoad || rec.kind == RecordKind::kStore) {
    tag |= static_cast<uint8_t>(log2_size(rec.size) << kSizeShift);
  }
  out_.put(static_cast<char>(tag));

  const uint64_t pred = have_prev_ ? prev_pc_ + isa::kInstBytes : base_pc_;
  put_varint(zigzag(static_cast<int64_t>(rec.pc - pred)));
  prev_pc_ = rec.pc;
  have_prev_ = true;

  if (rec.kind == RecordKind::kBranch) {
    put_varint(zigzag(
        static_cast<int64_t>(rec.next_pc - (rec.pc + isa::kInstBytes))));
  } else if (rec.kind == RecordKind::kLoad ||
             rec.kind == RecordKind::kStore) {
    put_varint(zigzag(static_cast<int64_t>(rec.addr - last_addr_)));
    last_addr_ = rec.addr;
  }
  ++records_;
}

void TraceWriter::finish(
    const std::array<uint64_t, isa::kNumLogicalRegs>& final_regs,
    uint64_t final_digest) {
  if (finished_) return;
  if (v2_) {
    v2_->finish(final_regs, final_digest);
    finished_ = true;
    return;
  }
  out_.seekp(kOffRecordCount);
  put_raw(out_, records_);
  out_.seekp(kOffFinalDigest);
  put_raw(out_, final_digest);
  out_.seekp(kOffFinalRegs);
  for (const uint64_t r : final_regs) put_raw(out_, r);
  out_.close();
  if (!out_) throw std::runtime_error("TraceWriter: write failed");
  // The checksum covers the patched header, so it can only be computed now
  // that the bytes are final.
  append_crc_footer(path_);
  finished_ = true;
}

// ---------------------------------------------------------------------------
// TraceReader
// ---------------------------------------------------------------------------

TraceReader::TraceReader(const std::string& path)
    : in_(path, std::ios::binary), span_(kTraceSpanRecords) {
  if (!in_) throw std::runtime_error("TraceReader: cannot open " + path);
  // Sniff the magic to pick the codec. v2 validates per block + via the
  // index CRC, so only the v1 path verifies the whole-file footer — that
  // keeps a seeked v2 open from checksumming payload it never decodes.
  char magic[sizeof(kTraceMagic)] = {};
  in_.read(magic, sizeof(magic));
  if (!in_) throw BadMagicError("TraceReader: bad magic in " + path);
  if (std::memcmp(magic, kTraceMagicV2, sizeof(magic)) == 0) {
    in_.close();
    version_ = kTraceVersionV2;
    v2_ = std::make_unique<v2::FileView>(v2::open_file(path));
    decoder_ = std::make_unique<v2::BlockDecoder>();
    meta_ = v2_->meta;
    record_count_ = v2_->record_count;
    final_digest_ = v2_->final_digest;
    final_regs_ = v2_->final_regs;
    open_us_ = std::chrono::duration_cast<std::chrono::microseconds>(
                   std::chrono::steady_clock::now().time_since_epoch())
                   .count();
    return;
  }
  if (std::memcmp(magic, kTraceMagic, sizeof(magic)) != 0) {
    throw BadMagicError("TraceReader: bad magic in " + path);
  }
  // Verify the CRC footer before decoding anything; the record stream
  // below is bounded by record_count, so the footer bytes are never
  // consumed as records.
  verify_crc_footer(path, "TraceReader");
  const uint32_t version = get_raw<uint32_t>(in_);
  if (version != kTraceVersion) {
    throw VersionError("TraceReader: unsupported version " +
                       std::to_string(version) + " in " + path);
  }
  (void)get_raw<uint32_t>(in_);  // reserved
  record_count_ = get_raw<uint64_t>(in_);
  if (record_count_ == kUnfinishedRecordCount) {
    throw std::runtime_error(
        "TraceReader: unfinished trace (recording was interrupted before "
        "finish()) in " + path);
  }
  meta_.base_pc = get_raw<uint64_t>(in_);
  final_digest_ = get_raw<uint64_t>(in_);
  for (auto& r : final_regs_) r = get_raw<uint64_t>(in_);
  meta_.scale = get_raw<uint32_t>(in_);
  const uint32_t name_len = get_raw<uint32_t>(in_);
  // Workload names are short identifiers; a large length means the header
  // bytes are garbage — fail cleanly instead of attempting the allocation.
  if (name_len > 4096) {
    throw std::runtime_error("TraceReader: corrupt header (name length " +
                             std::to_string(name_len) + ") in " + path);
  }
  meta_.workload.resize(name_len);
  in_.read(meta_.workload.data(), name_len);
  if (!in_) throw std::runtime_error("TraceReader: truncated header");
  prev_pc_ = meta_.base_pc;
  data_start_ = in_.tellg();
  open_us_ = std::chrono::duration_cast<std::chrono::microseconds>(
                 std::chrono::steady_clock::now().time_since_epoch())
                 .count();
}

TraceReader::~TraceReader() = default;

uint64_t TraceReader::get_varint() {
  uint64_t v = 0;
  int shift = 0;
  for (;;) {
    const int c = in_.get();
    if (c == std::char_traits<char>::eof()) {
      throw std::runtime_error("TraceReader: truncated varint");
    }
    v |= static_cast<uint64_t>(c & 0x7f) << shift;
    if ((c & 0x80) == 0) break;
    shift += 7;
    if (shift > 63) throw std::runtime_error("TraceReader: varint overflow");
  }
  return v;
}

void TraceReader::drain_telemetry() {
  // Decode-throughput telemetry, settled once per fully drained stream
  // (never per record — next() is the replay hot path). v2 counts its
  // records/bytes per decoded block instead, so only the histogram is
  // shared.
  if (telemetry_done_) return;
  telemetry_done_ = true;
  const int64_t now_us =
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count();
  obs::Registry& reg = obs::Registry::instance();
  if (version_ == kTraceVersion) {
    const auto pos = in_.tellg();
    reg.counter("trace.decode_records").add(record_count_);
    if (pos > 0) {
      reg.counter("trace.decode_bytes").add(static_cast<uint64_t>(pos));
    }
  }
  reg.histogram("trace.decode_us")
      .observe(static_cast<uint64_t>(std::max<int64_t>(
          0, now_us - open_us_)));
}

size_t TraceReader::read_span(const TraceRecord*& out, uint64_t max) {
  if (read_ >= record_count_) {
    drain_telemetry();
    return 0;
  }
  size_t n = 0;
  if (v2_) {
    if (read_ < span_first_ || read_ >= span_first_ + span_len_) refill_v2();
    const size_t at = static_cast<size_t>(read_ - span_first_);
    n = static_cast<size_t>(std::min<uint64_t>(max, span_len_ - at));
    out = span_.data() + at;
  } else {
    // v1 decodes exactly what it hands out, so the file cursor always sits
    // at read_ (seek_to's rewind-and-skip relies on that).
    n = static_cast<size_t>(std::min<uint64_t>(
        {max, kTraceSpanRecords, record_count_ - read_}));
    for (size_t i = 0; i < n; ++i) decode_v1(span_[i]);
    out = span_.data();
  }
  read_ += n;
  return n;
}

bool TraceReader::next(TraceRecord& out) {
  const TraceRecord* rec = nullptr;
  if (read_span(rec, 1) == 0) return false;
  out = *rec;
  return true;
}

void TraceReader::refill_v2() {
  span_len_ = 0;
  // Keep streaming the open block when read_ is at or ahead of its cursor;
  // a backward seek or a position past the block opens the covering one.
  if (read_ < decoder_->position() ||
      read_ >= decoder_->position() + decoder_->remaining()) {
    const auto it = std::upper_bound(
        v2_->blocks.begin(), v2_->blocks.end(), read_,
        [](uint64_t r, const v2::BlockIndexEntry& e) {
          return r < e.first_record;
        });
    decoder_->open(*v2_, static_cast<size_t>(it - v2_->blocks.begin()) - 1);
  }
  // Coder state is sequential within a block, so a seek into its middle
  // decodes and drops the records before the target.
  while (decoder_->position() < read_) {
    (void)decoder_->decode(
        span_.data(), static_cast<size_t>(std::min<uint64_t>(
                          kTraceSpanRecords, read_ - decoder_->position())));
  }
  span_first_ = read_;
  span_len_ = decoder_->decode(span_.data(), kTraceSpanRecords);
}

void TraceReader::decode_v1(TraceRecord& out) {
  const int tag_c = in_.get();
  if (tag_c == std::char_traits<char>::eof()) {
    throw std::runtime_error("TraceReader: truncated record stream");
  }
  const uint8_t tag = static_cast<uint8_t>(tag_c);
  out = TraceRecord{};
  out.kind = static_cast<RecordKind>(tag & kKindMask);

  const uint64_t pred = have_prev_ ? prev_pc_ + isa::kInstBytes
                                   : meta_.base_pc;
  out.pc = pred + static_cast<uint64_t>(unzigzag(get_varint()));
  prev_pc_ = out.pc;
  have_prev_ = true;

  if (out.kind == RecordKind::kBranch) {
    out.taken = (tag & kTakenBit) != 0;
    out.next_pc = out.pc + isa::kInstBytes +
                  static_cast<uint64_t>(unzigzag(get_varint()));
  } else if (out.kind == RecordKind::kLoad ||
             out.kind == RecordKind::kStore) {
    out.size = static_cast<uint8_t>(1u << ((tag >> kSizeShift) & 0x3));
    out.addr =
        last_addr_ + static_cast<uint64_t>(unzigzag(get_varint()));
    last_addr_ = out.addr;
  }
}

void TraceReader::seek_to(uint64_t inst_index) {
  if (inst_index > record_count_) {
    throw std::out_of_range(
        "TraceReader::seek_to(" + std::to_string(inst_index) +
        ") past record count " + std::to_string(record_count_));
  }
  if (v2_ || inst_index == read_) {
    // v2 repositions in O(1); the next read finds and opens the covering
    // block.
    read_ = inst_index;
    return;
  }
  // v1 has no index: decode forward, rewinding first when the target is
  // behind. Correct, just O(prefix).
  if (inst_index < read_) {
    in_.clear();
    in_.seekg(data_start_);
    read_ = 0;
    prev_pc_ = meta_.base_pc;
    have_prev_ = false;
    last_addr_ = 0;
  }
  const TraceRecord* skipped = nullptr;
  while (read_ < inst_index && read_span(skipped, inst_index - read_) > 0) {
  }
}

size_t TraceReader::block_count() const {
  return v2_ ? v2_->blocks.size() : 0;
}

uint32_t TraceReader::block_len() const { return v2_ ? v2_->block_len : 0; }

uint64_t TraceReader::block_first_record(size_t b) const {
  if (!v2_ || b >= v2_->blocks.size()) {
    throw std::out_of_range("TraceReader::block_first_record(" +
                            std::to_string(b) + ")");
  }
  return v2_->blocks[b].first_record;
}

std::vector<TraceRecord> TraceReader::decode_block(size_t b) const {
  if (!v2_) {
    throw std::logic_error(
        "TraceReader::decode_block: v1 traces have no blocks");
  }
  return v2::decode_block(*v2_, b);
}

std::array<uint64_t, kTraceV2Columns> TraceReader::column_bytes() const {
  return v2_ ? v2::column_bytes(*v2_)
             : std::array<uint64_t, kTraceV2Columns>{};
}

// ---------------------------------------------------------------------------
// Capture / replay drivers
// ---------------------------------------------------------------------------

namespace {

/// Wires one interpreter step into one TraceRecord. The interpreter fires
/// on_branch / on_mem inside the step and on_step at the end, so the
/// observers stash details and on_step emits.
class StepRecorder {
 public:
  explicit StepRecorder(isa::Interpreter& interp) : interp_(interp) {
    interp_.on_branch = [this](uint64_t pc, bool taken, uint64_t target) {
      pending_.kind = RecordKind::kBranch;
      pending_.taken = taken;
      pending_.next_pc = target;
      (void)pc;
    };
    interp_.on_mem = [this](uint64_t pc, uint64_t addr, int bytes,
                            bool is_store) {
      pending_.kind = is_store ? RecordKind::kStore : RecordKind::kLoad;
      pending_.addr = addr;
      pending_.size = static_cast<uint8_t>(bytes);
      (void)pc;
    };
    interp_.on_step = [this](uint64_t pc, uint64_t next_pc) {
      pending_.pc = pc;
      if (pending_.kind == RecordKind::kBranch) pending_.next_pc = next_pc;
      if (sink) sink(pending_);
      pending_ = TraceRecord{};
    };
  }

  std::function<void(const TraceRecord&)> sink;

 private:
  isa::Interpreter& interp_;
  TraceRecord pending_;
};

}  // namespace

isa::InterpResult record_interpreter(const isa::Program& program,
                                     const std::string& path,
                                     const TraceMeta& meta,
                                     uint64_t max_insts, TraceFormat format,
                                     uint32_t block_len) {
  obs::Span span("trace.record");
  TraceMeta m = meta;
  m.base_pc = program.base();
  TraceWriter writer(path, m, format, block_len);

  // Capture runs on the CFIR_ENGINE-selected functional engine; the cached
  // engine emits the identical record stream per-block instead of
  // per-instruction, so the trace bytes match the switch oracle exactly
  // (CI byte-diffs the two).
  mem::MainMemory memory;
  isa::load_data_image(program, memory);
  isa::FunctionalEngine engine(program, memory);
  engine.set_sink([&](uint64_t, const isa::StepEvent* ev, size_t n) {
    for (size_t i = 0; i < n; ++i) writer.append(to_trace_record(ev[i]));
  });
  engine.run(max_insts);

  isa::InterpResult r;
  r.executed = engine.executed();
  r.halted = engine.halted();
  r.regs = engine.regs();
  r.mem_digest = memory.digest();
  writer.finish(r.regs, r.mem_digest);
  return r;
}

ReplayResult replay_trace(const isa::Program& program,
                          const std::string& path) {
  TraceReader reader(path);
  return replay_trace(program, reader);
}

ReplayResult replay_trace(const isa::Program& program, TraceReader& reader) {
  obs::Span span("trace.replay");
  ReplayResult result;
  std::ostringstream why;

  // Replay stays on the reference Interpreter deliberately: verification
  // must stop at the exact diverging instruction (the run cap below counts
  // consumed records), which a block-batched engine cannot guarantee.
  mem::MainMemory memory;
  isa::load_data_image(program, memory);
  isa::Interpreter interp(program, memory);
  StepRecorder recorder(interp);

  bool diverged = false;
  recorder.sink = [&](const TraceRecord& live) {
    if (diverged) return;
    TraceRecord stored;
    if (!reader.next(stored)) {
      why << "trace ended early at live instruction " << result.replayed
          << "; ";
      diverged = true;
      return;
    }
    if (!(stored == live)) {
      why << "record " << result.replayed << " mismatch: stored pc=0x"
          << std::hex << stored.pc << " live pc=0x" << live.pc << std::dec
          << " stored kind=" << static_cast<int>(stored.kind)
          << " live kind=" << static_cast<int>(live.kind) << "; ";
      diverged = true;
      return;
    }
    ++result.replayed;
  };

  // A trace may have been capped at CFIR_MAX_INSTS, so replay exactly the
  // recorded prefix rather than running the program to completion.
  while (!diverged && result.replayed < reader.record_count() &&
         interp.step()) {
  }
  if (!diverged && result.replayed != reader.record_count()) {
    why << "trace has " << reader.record_count()
        << " records but live run retired only " << result.replayed << "; ";
  }

  result.final_state.executed = interp.executed();
  result.final_state.halted = interp.halted();
  result.final_state.regs = interp.regs();
  result.final_state.mem_digest = memory.digest();

  if (result.final_state.mem_digest != reader.final_digest()) {
    why << "final memory digest differs; ";
  }
  for (int i = 0; i < isa::kNumLogicalRegs; ++i) {
    if (result.final_state.regs[static_cast<size_t>(i)] !=
        reader.final_regs()[static_cast<size_t>(i)]) {
      why << "final r" << i << " differs; ";
      break;
    }
  }
  result.mismatch = why.str();
  result.match = result.mismatch.empty();
  return result;
}

}  // namespace cfir::trace
