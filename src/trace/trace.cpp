#include "trace/trace.hpp"

#include <algorithm>
#include <cstdlib>
#include <sstream>
#include <stdexcept>

#include "mem/main_memory.hpp"
#include "obs/tracer.hpp"
#include "trace/trace_v2.hpp"

namespace cfir::trace {

std::string env_trace_dir() {
  const char* v = std::getenv("CFIR_TRACE_DIR");
  return (v == nullptr || *v == '\0') ? std::string(".") : std::string(v);
}

// ---------------------------------------------------------------------------
// TraceReader
// ---------------------------------------------------------------------------

TraceReader::TraceReader(const std::string& path)
    : file_(std::make_unique<v2::FileView>(v2::open_file(path))),
      decoder_(std::make_unique<v2::BlockDecoder>()),
      meta_(file_->meta),
      record_count_(file_->record_count),
      final_digest_(file_->final_digest),
      final_regs_(file_->final_regs),
      span_(kTraceSpanRecords) {}

TraceReader::~TraceReader() = default;

size_t TraceReader::read_span(const TraceRecord*& out, uint64_t max) {
  if (read_ >= record_count_) return 0;
  if (read_ < span_first_ || read_ >= span_first_ + span_len_) refill();
  const size_t at = static_cast<size_t>(read_ - span_first_);
  const size_t n = static_cast<size_t>(std::min<uint64_t>(max, span_len_ - at));
  out = span_.data() + at;
  read_ += n;
  return n;
}

bool TraceReader::next(TraceRecord& out) {
  const TraceRecord* rec = nullptr;
  if (read_span(rec, 1) == 0) return false;
  out = *rec;
  return true;
}

void TraceReader::refill() {
  span_len_ = 0;
  // Keep streaming the open block when read_ is at or ahead of its cursor;
  // a backward seek or a position past the block opens the covering one.
  if (read_ < decoder_->position() ||
      read_ >= decoder_->position() + decoder_->remaining()) {
    const auto it = std::upper_bound(
        file_->blocks.begin(), file_->blocks.end(), read_,
        [](uint64_t r, const v2::BlockIndexEntry& e) {
          return r < e.first_record;
        });
    decoder_->open(*file_,
                   static_cast<size_t>(it - file_->blocks.begin()) - 1);
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

void TraceReader::seek_to(uint64_t inst_index) {
  if (inst_index > record_count_) {
    throw std::out_of_range(
        "TraceReader::seek_to(" + std::to_string(inst_index) +
        ") past record count " + std::to_string(record_count_));
  }
  // The next read finds and opens the covering block.
  read_ = inst_index;
}

size_t TraceReader::block_count() const { return file_->blocks.size(); }

uint32_t TraceReader::block_len() const { return file_->block_len; }

uint64_t TraceReader::block_first_record(size_t b) const {
  if (b >= file_->blocks.size()) {
    throw std::out_of_range("TraceReader::block_first_record(" +
                            std::to_string(b) + ")");
  }
  return file_->blocks[b].first_record;
}

std::vector<TraceRecord> TraceReader::decode_block(size_t b) const {
  return v2::decode_block(*file_, b);
}

std::array<uint64_t, kTraceV2Columns> TraceReader::column_bytes() const {
  return v2::column_bytes(*file_);
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
                                     uint64_t max_insts,
                                     uint32_t block_len) {
  obs::Span span("trace.record");
  TraceMeta m = meta;
  m.base_pc = program.base();
  TraceWriter writer(path, m, block_len);

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
