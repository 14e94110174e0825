// SMARTS-style functional warming (Wunderlich et al., ISCA'03 — see
// docs/sampling.md "Functional warming"): stream the committed-instruction
// records of the gap before a detailed interval through the predictors and
// caches *only*, at functional-engine speed, so the detailed interval
// starts with warm microarchitectural state without paying detailed
// simulation for the warm-up.
//
// The FunctionalWarmer owns standalone instances of every Warmable
// component the core trains on the committed path — gshare, MBS, RAS, the
// stride predictor and the four-level cache hierarchy — built from the same
// CoreConfig as the detailed core. Streaming a committed prefix through
// on_record() reproduces, component by component, exactly the state a
// detailed run's commit-path training leaves behind (tests/
// test_functional_warming.cpp locks this in per component). Warm state
// travels as an opaque serialized blob — captured for a whole config grid
// at once, optionally written as a per-(interval, config) warm sidecar
// (trace/manifest.hpp) so warmed intervals stay shardable across
// machines — and install_warm_state() loads it into a freshly constructed
// Simulator before its first cycle.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "branch/gshare.hpp"
#include "branch/mbs.hpp"
#include "branch/ras.hpp"
#include "ci/stride_predictor.hpp"
#include "core/config.hpp"
#include "isa/engine.hpp"
#include "isa/interpreter.hpp"
#include "isa/program.hpp"
#include "mem/hierarchy.hpp"
#include "mem/main_memory.hpp"
#include "trace/trace.hpp"

namespace cfir::sim {
class Simulator;
}  // namespace cfir::sim

namespace cfir::trace {

/// How a detailed interval's state is warmed before measurement begins.
enum class WarmMode : uint8_t {
  kNone = 0,       ///< cold start at the interval boundary
  kDetailed = 1,   ///< detail-simulate W extra instructions, subtract stats
  kFunctional = 2, ///< stream the whole prefix through predictors/caches
  kHybrid = 3,     ///< functional prefix + a short detailed tail of W insts
};

[[nodiscard]] const char* warm_mode_name(WarmMode mode);
/// Parses "none" | "detailed" | "functional" | "hybrid"; throws on anything
/// else, the empty string included, so a misspelled or blank flag fails
/// loudly instead of silently picking a mode.
[[nodiscard]] WarmMode parse_warm_mode(std::string_view name);

/// True when `mode` runs a detailed warm-up slice before the measured
/// window (and therefore wants checkpoints captured `warmup` insts early).
[[nodiscard]] constexpr bool warm_mode_has_detailed_slice(WarmMode mode) {
  return mode == WarmMode::kDetailed || mode == WarmMode::kHybrid;
}

/// True when `mode` streams a functional prefix through predictors/caches.
[[nodiscard]] constexpr bool warm_mode_has_functional_prefix(WarmMode mode) {
  return mode == WarmMode::kFunctional || mode == WarmMode::kHybrid;
}

class FunctionalWarmer {
 public:
  /// Components are sized from `config` exactly as the detailed core sizes
  /// its own; `program` must outlive the warmer (opcode lookup for RAS
  /// call/ret handling and the streaming engine both reference it).
  /// `engine_kind` selects the functional core advance_to() streams from
  /// (defaults to the CFIR_ENGINE knob; the event stream — and therefore
  /// every trained component — is bit-identical either way).
  FunctionalWarmer(const core::CoreConfig& config, const isa::Program& program,
                   isa::EngineKind engine_kind = isa::engine_kind_from_env());

  /// Feeds one committed instruction, in commit order. advance_to() drives
  /// it from the built-in functional engine; grid capture feeds it spans.
  void on_record(const TraceRecord& rec);

  /// Streams committed instructions from the warmer's current position up
  /// to (program-global) instruction count `n_insts` through on_record(),
  /// using the functional engine. Monotonic: calling with a target at
  /// or below the current position is a no-op, so one warmer can snapshot
  /// several sorted interval boundaries in a single pass. After
  /// deserialize_state() the position is the blob's warmed(): the restored
  /// prefix is fast-skipped (architecturally executed, not re-trained), so
  /// resuming a shipped warmer continues exactly where serialization
  /// stopped.
  void advance_to(uint64_t n_insts);

  /// Committed instructions warmed so far.
  [[nodiscard]] uint64_t warmed() const { return warmed_; }

  /// Opaque warm-state blob (components + a geometry signature + position).
  /// deserialize_state() rejects blobs from differently configured warmers
  /// with the typed errors install_warm_state() documents.
  [[nodiscard]] std::vector<uint8_t> serialize_state() const;
  void deserialize_state(const std::vector<uint8_t>& blob);

  /// serialize_state() split around its policy-dependent part. A blob is
  ///   magic | policy byte | head | stride predictor | tail
  /// and only the policy byte and the stride predictor depend on the
  /// policy, so grid capture serializes one commit-path warmer's head and
  /// tail once per target and splices each config's policy byte and
  /// stride section between them. serialize_state() is this splice too.
  struct SharedState {
    std::vector<uint8_t> head;  ///< position, gshare, MBS, RAS
    std::vector<uint8_t> tail;  ///< cache hierarchy
  };
  [[nodiscard]] SharedState serialize_shared() const;
  [[nodiscard]] static std::vector<uint8_t> splice_state(
      core::Policy policy, const SharedState& shared,
      const std::vector<uint8_t>& stride);

  // Per-component introspection for the differential tests.
  [[nodiscard]] const branch::Gshare& gshare() const { return gshare_; }
  [[nodiscard]] const branch::MbsTable& mbs() const { return mbs_; }
  [[nodiscard]] const branch::ReturnAddressStack& ras() const { return ras_; }
  [[nodiscard]] const ci::StridePredictor& stride_predictor() const {
    return stride_;
  }
  [[nodiscard]] const mem::CacheHierarchy& hierarchy() const { return hier_; }

 private:
  const isa::Program& program_;
  core::Policy policy_;
  isa::EngineKind engine_kind_;
  uint32_t l1i_line_bytes_;

  branch::Gshare gshare_;
  branch::MbsTable mbs_;
  branch::ReturnAddressStack ras_;
  ci::StridePredictor stride_;
  mem::CacheHierarchy hier_;
  uint64_t last_fetch_line_ = ~uint64_t{0};
  uint64_t warmed_ = 0;

  // Streaming functional engine (lazily started by advance_to).
  std::unique_ptr<mem::MainMemory> engine_mem_;
  std::unique_ptr<isa::FunctionalEngine> engine_;
  void ensure_engine();
};

/// Installs a serialized warm-state blob straight into `sim`'s components
/// — gshare, MBS, RAS, the cache hierarchy and, when the policy has a
/// CiMechanism, its stride predictor — without building a FunctionalWarmer
/// (and its whole cache hierarchy) per unit. `sim` must be freshly
/// constructed and not yet run; the blob must come from a warmer of the
/// same policy and geometry as `sim`'s config. Errors are typed like
/// FunctionalWarmer::deserialize_state: BadMagicError (not a warm blob),
/// VersionError (an older "WRM?" generation), ConfigMismatchError (policy
/// or geometry differs), CorruptFileError (truncated, malformed or
/// trailing bytes). A failed install leaves `sim` partly warmed; callers
/// discard it.
void install_warm_state(const std::vector<uint8_t>& blob,
                        sim::Simulator& sim);

/// One streaming engine pass capturing the serialized warm state at
/// each target instruction count (`targets` must be non-decreasing —
/// interval plans are). Element i is the blob for warming [0, targets[i]).
/// The solo reference: capture_warm_states_grid is tested against it.
[[nodiscard]] std::vector<std::vector<uint8_t>> capture_warm_states(
    const core::CoreConfig& config, const isa::Program& program,
    const std::vector<uint64_t>& targets);

/// The multi-config variant behind config-grid sharding (docs/sampling.md
/// "Shared grid warming"): ONE streaming engine pass over the committed
/// stream warms the whole grid. Configs are grouped by
/// CoreConfig::warm_geometry_digest(); each group trains ONE commit-path
/// warmer (caches, gshare, MBS, RAS) plus one stride-predictor lane per
/// stride-training policy (ci, vect) present in it, because the stride
/// predictor is the only policy-dependent warm state. At each target the
/// group's shared sections serialize once and every config's blob is
/// spliced from them (FunctionalWarmer::splice_state). Result[c][i] is
/// the blob for config c warmed over [0, targets[i]), byte-identical to
/// capture_warm_states(configs[c], ...)[i]. The `warming.trainers` and
/// `warming.stride_lanes` counters record what each call builds.
[[nodiscard]] std::vector<std::vector<std::vector<uint8_t>>>
capture_warm_states_grid(const std::vector<core::CoreConfig>& configs,
                         const isa::Program& program,
                         const std::vector<uint64_t>& targets);

/// Trace-fed variant: streams the committed records out of `reader`
/// instead of re-executing the program, reading only the blocks covering
/// [0, targets.back()) on a CFIRTRC2 file. Blobs are bit-identical to
/// the engine-pass variant because the recorded stream is the same event
/// stream. Throws if the trace ends before the last target, naming the
/// target and its interval.
[[nodiscard]] std::vector<std::vector<std::vector<uint8_t>>>
capture_warm_states_grid(const std::vector<core::CoreConfig>& configs,
                         const isa::Program& program, TraceReader& reader,
                         const std::vector<uint64_t>& targets);

}  // namespace cfir::trace
