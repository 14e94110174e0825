#include "trace/warming.hpp"

#include <algorithm>
#include <array>
#include <cstring>
#include <iterator>
#include <memory>
#include <stdexcept>
#include <string>
#include <unordered_map>

#include "ci/mechanism.hpp"
#include "obs/metrics.hpp"
#include "obs/tracer.hpp"
#include "sim/simulator.hpp"
#include "trace/errors.hpp"
#include "util/warmable.hpp"

namespace cfir::trace {

namespace {
/// Warm-state blob magic (docs/trace-format.md "Warm-state blob"). Only
/// the current version loads; "WRM1" (dense tables) and any other "WRM?"
/// are rejected as stale artifacts to regenerate.
constexpr char kWarmStateMagic[4] = {'W', 'R', 'M', '2'};

[[nodiscard]] bool trains_stride(core::Policy policy) {
  return policy == core::Policy::kCi || policy == core::Policy::kVect;
}

/// Commit-path stride-predictor training on one committed load — the only
/// policy-dependent part of functional warming (paper section 3.1).
void train_stride(ci::StridePredictor& stride, core::Policy policy,
                  uint64_t pc, uint64_t addr) {
  if (!trains_stride(policy)) return;
  stride.train(pc, addr);
  if (policy == core::Policy::kVect) {
    // The vect policy's commit rule (ci/mechanism.cpp on_commit): every
    // confident, non-zero-stride load is selected. Purely commit-driven,
    // so functional warming reproduces it exactly. The ci policy's S flags
    // are episode-driven (speculative state a commit stream cannot derive)
    // and deliberately stay cold: pre-selecting every strided load was
    // tried and over-drives the replica engine in short windows (twolf
    // IPC +45%), a worse bias than the cold-selection ramp it removes.
    const ci::StridePredictor::Info sp = stride.lookup(pc);
    if (sp.confident && !sp.selected && sp.stride != 0) stride.select(pc, 0);
  }
}

std::vector<uint8_t> serialize_stride(const ci::StridePredictor& stride) {
  util::ByteWriter out;
  stride.serialize(out);
  return out.take();
}

void check_targets_sorted(const std::vector<uint64_t>& targets) {
  for (size_t i = 1; i < targets.size(); ++i) {
    if (targets[i] < targets[i - 1]) {
      throw std::runtime_error("capture_warm_states_grid: targets not sorted");
    }
  }
}

[[noreturn]] void throw_trace_truncated(uint64_t pos, uint64_t target,
                                        size_t index, size_t n_targets) {
  throw std::runtime_error(
      "capture_warm_states_grid: trace ends at " + std::to_string(pos) +
      " records, warm target " + std::to_string(target) + " (interval " +
      std::to_string(index) + " of " + std::to_string(n_targets) + ")");
}
}  // namespace

const char* warm_mode_name(WarmMode mode) {
  switch (mode) {
    case WarmMode::kNone: return "none";
    case WarmMode::kDetailed: return "detailed";
    case WarmMode::kFunctional: return "functional";
    case WarmMode::kHybrid: return "hybrid";
  }
  return "?";
}

WarmMode parse_warm_mode(std::string_view name) {
  if (name == "detailed") return WarmMode::kDetailed;
  if (name == "none") return WarmMode::kNone;
  if (name == "functional") return WarmMode::kFunctional;
  if (name == "hybrid") return WarmMode::kHybrid;
  throw std::runtime_error(
      "warm mode must be 'none', 'detailed', 'functional' or 'hybrid', got '" +
      std::string(name) + "'");
}

FunctionalWarmer::FunctionalWarmer(const core::CoreConfig& config,
                                   const isa::Program& program,
                                   isa::EngineKind engine_kind)
    : program_(program),
      policy_(config.policy),
      engine_kind_(engine_kind),
      l1i_line_bytes_(config.memory.l1i.line_bytes),
      gshare_(config.gshare_entries, config.gshare_history_bits),
      mbs_(config.mbs_sets, config.mbs_ways),
      stride_(config.stride_sets, config.stride_ways),
      hier_(config.memory) {}

void FunctionalWarmer::on_record(const TraceRecord& rec) {
  // Instruction fetch: one L1I access per line transition, mirroring the
  // core's fetch stage (last_fetch_line_ there, last_fetch_line_ here).
  const uint64_t line = rec.pc / l1i_line_bytes_;
  if (line != last_fetch_line_) {
    hier_.warm_inst(rec.pc);
    last_fetch_line_ = line;
  }

  switch (rec.kind) {
    case RecordKind::kBranch:
      gshare_.warm_commit(rec.pc, rec.taken);
      mbs_.update(rec.pc, rec.taken);
      break;
    case RecordKind::kLoad:
      hier_.warm_data(rec.addr, /*is_write=*/false);
      train_stride(stride_, policy_, rec.pc, rec.addr);
      break;
    case RecordKind::kStore:
      hier_.warm_data(rec.addr, /*is_write=*/true);
      break;
    case RecordKind::kPlain: {
      // CALL/RET drive the return address stack; recovery snapshots make
      // the detailed core's final RAS equal the committed push/pop stream.
      const isa::Instruction* ip = program_.try_at(rec.pc);
      if (ip != nullptr) {
        if (ip->op == isa::Opcode::kCall) {
          ras_.push(rec.pc + isa::kInstBytes);
        } else if (ip->op == isa::Opcode::kRet) {
          ras_.pop();
        }
      }
      break;
    }
  }
  ++warmed_;
}

void FunctionalWarmer::ensure_engine() {
  if (engine_ != nullptr) return;
  engine_mem_ = std::make_unique<mem::MainMemory>();
  isa::load_data_image(program_, *engine_mem_);
  engine_ = std::make_unique<isa::FunctionalEngine>(program_, *engine_mem_,
                                                    engine_kind_);
  // A warmer restored from a serialized blob already holds the state of
  // [0, warmed_): fast-skip the engine there with the sink still unset so
  // the prefix is architecturally executed but not streamed (and trained)
  // a second time.
  if (warmed_ > 0) engine_->run(warmed_);
  engine_->set_sink([this](uint64_t, const isa::StepEvent* ev, size_t n) {
    for (size_t i = 0; i < n; ++i) on_record(to_trace_record(ev[i]));
  });
}

void FunctionalWarmer::advance_to(uint64_t n_insts) {
  ensure_engine();
  engine_->run_to(n_insts);
}

std::vector<uint8_t> FunctionalWarmer::serialize_state() const {
  return splice_state(policy_, serialize_shared(), serialize_stride(stride_));
}

FunctionalWarmer::SharedState FunctionalWarmer::serialize_shared() const {
  util::ByteWriter head;
  head.u64(warmed_);
  head.u64(last_fetch_line_);
  gshare_.serialize(head);
  mbs_.serialize(head);
  ras_.serialize(head);
  util::ByteWriter tail;
  hier_.serialize(tail);
  return {head.take(), tail.take()};
}

std::vector<uint8_t> FunctionalWarmer::splice_state(
    core::Policy policy, const SharedState& shared,
    const std::vector<uint8_t>& stride) {
  std::vector<uint8_t> blob(sizeof(kWarmStateMagic) + 1 + shared.head.size() +
                            stride.size() + shared.tail.size());
  auto out = std::copy(std::begin(kWarmStateMagic), std::end(kWarmStateMagic),
                       blob.begin());
  *out++ = static_cast<uint8_t>(policy);
  out = std::copy(shared.head.begin(), shared.head.end(), out);
  out = std::copy(stride.begin(), stride.end(), out);
  std::copy(shared.tail.begin(), shared.tail.end(), out);
  return blob;
}

namespace {
/// Checks a warm-state blob's magic, version and policy byte and returns a
/// reader over the component sections that follow.
util::ByteReader open_warm_blob(const std::vector<uint8_t>& blob,
                                core::Policy policy, const char* who) {
  constexpr size_t kPolicyAt = sizeof(kWarmStateMagic);
  if (blob.size() <= kPolicyAt) {
    throw CorruptFileError(std::string(who) + ": truncated warm-state blob");
  }
  if (std::memcmp(blob.data(), kWarmStateMagic, 3) != 0) {
    throw BadMagicError(std::string(who) + ": not a warm-state blob");
  }
  if (blob[3] != static_cast<uint8_t>(kWarmStateMagic[3])) {
    throw VersionError(
        std::string(who) + ": warm-state blob version 'WRM" +
        std::string(1, static_cast<char>(blob[3])) +
        "' is not the current 'WRM2' — re-run `trace_tool plan` to "
        "regenerate the warm state");
  }
  if (blob[kPolicyAt] != static_cast<uint8_t>(policy)) {
    throw ConfigMismatchError(std::string(who) +
                              ": warm-state policy mismatch");
  }
  return util::ByteReader(blob.data() + kPolicyAt + 1,
                          blob.size() - kPolicyAt - 1);
}

/// Runs `read` over the component sections and maps its failures onto the
/// typed errors: a geometry mismatch is ConfigMismatchError, a short or
/// malformed section or trailing bytes are CorruptFileError.
template <typename Read>
void read_warm_sections(util::ByteReader& in, const char* who, Read&& read) {
  try {
    read(in);
  } catch (const util::WarmGeometryError& e) {
    throw ConfigMismatchError(std::string(who) + ": " + e.what());
  } catch (const std::runtime_error& e) {
    // ByteReader underflow or a sparse-table structure violation.
    throw CorruptFileError(std::string(who) +
                           ": corrupt warm-state blob: " + e.what());
  }
  if (!in.done()) {
    throw CorruptFileError(std::string(who) + ": trailing warm-state bytes");
  }
}
}  // namespace

void FunctionalWarmer::deserialize_state(const std::vector<uint8_t>& blob) {
  util::ByteReader in = open_warm_blob(blob, policy_, "FunctionalWarmer");
  // Drop any live engine: it sits at the pre-restore position, and the
  // next advance_to() must resume from warmed_ (ensure_engine fast-skips
  // the restored prefix).
  engine_.reset();
  engine_mem_.reset();
  read_warm_sections(in, "FunctionalWarmer", [&](util::ByteReader& r) {
    warmed_ = r.u64();
    last_fetch_line_ = r.u64();
    gshare_.deserialize(r);
    mbs_.deserialize(r);
    ras_.deserialize(r);
    stride_.deserialize(r);
    hier_.deserialize(r);
  });
}

void install_warm_state(const std::vector<uint8_t>& blob,
                        sim::Simulator& sim) {
  core::Core& core = sim.core();
  const core::CoreConfig& config = core.config();
  util::ByteReader in = open_warm_blob(blob, config.policy,
                                       "install_warm_state");
  ci::CiMechanism* mech = sim.ci_mechanism();
  read_warm_sections(in, "install_warm_state", [&](util::ByteReader& r) {
    // The stream position and the warmer's fetch-line filter describe the
    // warmer, not the core: the unit's checkpoint fixes where it starts.
    (void)r.u64();
    (void)r.u64();
    core.gshare().deserialize(r);
    core.mbs().deserialize(r);
    core.ras().deserialize(r);
    if (mech != nullptr) {
      mech->stride_predictor().deserialize(r);
    } else {
      // A policy without a CI mechanism has no stride predictor to warm;
      // its section is still read through one so it is checked the same.
      ci::StridePredictor unused(config.stride_sets, config.stride_ways);
      unused.deserialize(r);
    }
    core.hierarchy().deserialize(r);
  });
}

std::vector<std::vector<uint8_t>> capture_warm_states(
    const core::CoreConfig& config, const isa::Program& program,
    const std::vector<uint64_t>& targets) {
  obs::Span span("warming.capture", targets.size());
  const obs::Stopwatch clock;
  std::vector<std::vector<uint8_t>> out;
  out.reserve(targets.size());
  FunctionalWarmer warmer(config, program);
  uint64_t prev = 0;
  for (const uint64_t target : targets) {
    if (target < prev) {
      throw std::runtime_error("capture_warm_states: targets not sorted");
    }
    prev = target;
    warmer.advance_to(target);
    out.push_back(warmer.serialize_state());
  }
  obs::Registry& reg = obs::Registry::instance();
  reg.counter("warming.insts").add(prev);
  reg.histogram("warming.capture_us").observe(clock.elapsed_us());
  return out;
}

namespace {
/// Shared grid training (docs/sampling.md "Shared grid warming"): configs
/// whose warm geometry coincides share ONE commit-path warmer, and each
/// stride-training policy among them gets one stride-predictor lane —
/// the stride predictor is the only warm state that depends on policy.
class GridWarmer {
 public:
  GridWarmer(const std::vector<core::CoreConfig>& configs,
             const isa::Program& program)
      : out_(configs.size()) {
    std::unordered_map<uint64_t, size_t> group_by_geometry;
    for (size_t c = 0; c < configs.size(); ++c) {
      const core::CoreConfig& config = configs[c];
      const auto [it, fresh] = group_by_geometry.emplace(
          config.warm_geometry_digest(), groups_.size());
      if (fresh) {
        // A policy that trains no stride lane makes the warmer purely
        // commit-path; its stride predictor stays default-constructed.
        core::CoreConfig commit_path = config;
        commit_path.policy = core::Policy::kNone;
        groups_.push_back(std::make_unique<Group>(commit_path, program));
      }
      Group& group = *groups_[it->second];
      Member member{c, config.policy, -1};
      if (trains_stride(config.policy)) {
        size_t lane = 0;
        while (lane < group.lanes.size() &&
               group.lanes[lane].policy != config.policy) {
          ++lane;
        }
        if (lane == group.lanes.size()) {
          group.lanes.push_back({config.policy,
                                 ci::StridePredictor(config.stride_sets,
                                                     config.stride_ways)});
        }
        member.lane = static_cast<int>(lane);
      }
      group.members.push_back(member);
    }
    obs::Registry& reg = obs::Registry::instance();
    reg.counter("warming.trainers").add(groups_.size());
    for (const auto& group : groups_) {
      reg.counter("warming.stride_lanes").add(group->lanes.size());
    }
  }

  /// Trains every group on `n` consecutive records. Groups are
  /// independent, so each takes the whole span in turn while it is hot.
  void on_span(const TraceRecord* span, size_t n) {
    for (const auto& group : groups_) {
      for (size_t i = 0; i < n; ++i) {
        const TraceRecord& rec = span[i];
        group->warmer.on_record(rec);
        if (rec.kind != RecordKind::kLoad) continue;
        for (Lane& lane : group->lanes) {
          train_stride(lane.stride, lane.policy, rec.pc, rec.addr);
        }
      }
    }
  }

  /// Appends every config's blob for the current stream position.
  void snapshot() {
    for (const auto& group : groups_) {
      const FunctionalWarmer::SharedState shared =
          group->warmer.serialize_shared();
      std::vector<std::vector<uint8_t>> lane_strides;
      lane_strides.reserve(group->lanes.size());
      for (const Lane& lane : group->lanes) {
        lane_strides.push_back(serialize_stride(lane.stride));
      }
      for (const Member& m : group->members) {
        out_[m.config].push_back(FunctionalWarmer::splice_state(
            m.policy, shared,
            m.lane < 0 ? group->default_stride : lane_strides[m.lane]));
      }
    }
  }

  [[nodiscard]] std::vector<std::vector<std::vector<uint8_t>>> take() {
    return std::move(out_);
  }

 private:
  struct Lane {
    core::Policy policy;
    ci::StridePredictor stride;
  };
  struct Member {
    size_t config;
    core::Policy policy;
    int lane;  ///< index into Group::lanes, -1 = the default stride
  };
  struct Group {
    Group(const core::CoreConfig& commit_path, const isa::Program& program)
        : warmer(commit_path, program),
          default_stride(serialize_stride(warmer.stride_predictor())) {}
    FunctionalWarmer warmer;
    std::vector<uint8_t> default_stride;
    std::vector<Lane> lanes;
    std::vector<Member> members;
  };
  std::vector<std::unique_ptr<Group>> groups_;
  std::vector<std::vector<std::vector<uint8_t>>> out_;
};

/// Shared prologue/epilogue of both grid capture sources: validation, the
/// capture span, and the `warming.insts` / `warming.capture_us` telemetry
/// (the streamed prefix counts once however many configs share it — the
/// same convention ShardResult::warmed_insts uses).
template <typename Stream>
std::vector<std::vector<std::vector<uint8_t>>> capture_grid(
    const std::vector<core::CoreConfig>& configs, const isa::Program& program,
    const std::vector<uint64_t>& targets, Stream&& stream) {
  if (configs.empty()) {
    throw std::runtime_error("capture_warm_states_grid: no configs");
  }
  check_targets_sorted(targets);
  obs::Span span("warming.capture", targets.size());
  const obs::Stopwatch clock;
  GridWarmer grid(configs, program);
  const uint64_t streamed = stream(grid);
  obs::Registry& reg = obs::Registry::instance();
  reg.counter("warming.insts").add(streamed);
  reg.histogram("warming.capture_us").observe(clock.elapsed_us());
  return grid.take();
}
}  // namespace

std::vector<std::vector<std::vector<uint8_t>>> capture_warm_states_grid(
    const std::vector<core::CoreConfig>& configs, const isa::Program& program,
    const std::vector<uint64_t>& targets) {
  return capture_grid(configs, program, targets, [&](GridWarmer& grid) {
    // The sink delivers the same TraceRecord stream
    // FunctionalWarmer::advance_to feeds itself. A program that halts
    // before a target snapshots it at the final state.
    mem::MainMemory memory;
    isa::load_data_image(program, memory);
    isa::FunctionalEngine engine(program, memory);
    std::array<TraceRecord, kTraceSpanRecords> span;
    engine.set_sink([&](uint64_t, const isa::StepEvent* ev, size_t n) {
      while (n > 0) {
        const size_t m = std::min(n, span.size());
        for (size_t i = 0; i < m; ++i) span[i] = to_trace_record(ev[i]);
        grid.on_span(span.data(), m);
        ev += m;
        n -= m;
      }
    });
    for (const uint64_t target : targets) {
      engine.run_to(target);
      grid.snapshot();
    }
    return engine.executed();
  });
}

std::vector<std::vector<std::vector<uint8_t>>> capture_warm_states_grid(
    const std::vector<core::CoreConfig>& configs, const isa::Program& program,
    TraceReader& reader, const std::vector<uint64_t>& targets) {
  return capture_grid(configs, program, targets, [&](GridWarmer& grid) {
    // The stored records ARE the engine's event stream (the recorder used
    // the same sink), so they train byte-identical state — but a CFIRTRC2
    // reader only decodes the blocks covering [0, last target).
    reader.seek_to(0);
    uint64_t pos = 0;
    for (size_t t = 0; t < targets.size(); ++t) {
      while (pos < targets[t]) {
        const TraceRecord* span = nullptr;
        const size_t n = reader.read_span(span, targets[t] - pos);
        if (n == 0) throw_trace_truncated(pos, targets[t], t, targets.size());
        grid.on_span(span, n);
        pos += n;
      }
      grid.snapshot();
    }
    return pos;
  });
}

}  // namespace cfir::trace
