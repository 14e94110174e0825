// Bit-identity wall for shared grid warming (docs/sampling.md "Shared grid
// warming"): capture_warm_states_grid trains ONE commit-path warmer per
// warm geometry plus one stride-predictor lane per stride-training policy,
// and splices every config's blob from the shared sections. Each grid blob
// must equal the solo FunctionalWarmer oracle — capture_warm_states under
// that config alone — for a mixed grid of all six preset families plus a
// second cache geometry, fed from every source: the engine pass, a
// recorded trace and a 4-record tiny-block trace. Also locked here:
//
//  - an engine source that halts before the last target snapshots the
//    tail at the final state, like the solo oracle;
//  - truncated traces name the offending warm target and interval;
//  - the trainer / stride-lane counts a grid builds (a deterministic
//    guard: a grouping regression re-inflates warming cost per config);
//  - run_shard grids byte-equal whether warm state comes from sidecar
//    blobs, the engine pass or a recorded trace, after scrubbing the
//    (intentionally nondeterministic) wall-clock telemetry;
//  - WarmingPipelineS8: the same oracle on bzip2 s8 (excluded from the
//    sanitizer CI job alongside TraceV2S8 — same exclusion pattern).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "helpers.hpp"
#include "obs/metrics.hpp"
#include "sim/presets.hpp"
#include "trace/sampling.hpp"
#include "trace/shard.hpp"
#include "trace/trace.hpp"
#include "trace/warming.hpp"
#include "workloads/workloads.hpp"

namespace cfir::trace {
namespace {

class TempFile {
 public:
  explicit TempFile(const std::string& tag)
      : path_(std::string(::testing::TempDir()) + "cfir_warmpipe_" + tag +
              "_" + std::to_string(reinterpret_cast<uintptr_t>(this))) {}
  ~TempFile() { std::remove(path_.c_str()); }
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
};

using Blobs = std::vector<std::vector<std::vector<uint8_t>>>;

Blobs capture_from(const std::string& trace_path,
                   const std::vector<core::CoreConfig>& configs,
                   const isa::Program& program,
                   const std::vector<uint64_t>& targets) {
  TraceReader reader(trace_path);
  return capture_warm_states_grid(configs, program, reader, targets);
}

/// The solo FunctionalWarmer oracle: one capture_warm_states per config.
Blobs solo_oracle(const std::vector<core::CoreConfig>& configs,
                  const isa::Program& program,
                  const std::vector<uint64_t>& targets) {
  Blobs out;
  for (const core::CoreConfig& config : configs) {
    out.push_back(capture_warm_states(config, program, targets));
  }
  return out;
}

core::CoreConfig with_double_l1d(core::CoreConfig config) {
  config.memory.l1d.size_bytes *= 2;
  return config;
}

/// All six preset families, plus a second cache geometry holding both a
/// stride-lane policy and a default-stride one: two trainers, three lanes.
std::vector<core::CoreConfig> mixed_grid() {
  std::vector<core::CoreConfig> grid;
  for (const char* spec : {"scal:2:256", "wb:2:256", "ci:2:512", "ci-iw:2:512",
                           "ci-h:2:512:768", "vect:2:512"}) {
    grid.push_back(sim::presets::from_spec(spec));
  }
  grid.push_back(with_double_l1d(sim::presets::scal(2, 256)));
  grid.push_back(with_double_l1d(sim::presets::ci(2, 256)));
  return grid;
}

/// Wall-clock telemetry is host-dependent by design; zero it so shard
/// results can be compared byte for byte (the trace_tool --scrub-wall
/// contract).
ShardResult scrub_wall(ShardResult r) {
  r.warm_wall_us = 0;
  for (auto& iv : r.intervals) iv.wall_us.clear();
  return r;
}

std::vector<ConfigBinding> bindings_for(
    const std::vector<core::CoreConfig>& configs) {
  std::vector<ConfigBinding> bindings(configs.size());
  for (size_t c = 0; c < configs.size(); ++c) {
    bindings[c].config = configs[c];
    bindings[c].name = configs[c].label() + "#" + std::to_string(c);
    bindings[c].config_hash = configs[c].digest();
  }
  return bindings;
}

TEST(WarmingPipeline, GridBlobsMatchSoloOracleAcrossSources) {
  const isa::Program program = cfir::testing::figure1_program(512);
  TempFile file("trace");
  TraceMeta meta;
  meta.workload = "figure1";
  const uint64_t total =
      record_interpreter(program, file.path(), meta).executed;

  const std::vector<core::CoreConfig> configs = mixed_grid();
  // Targets at 0 (cold snapshot before any record), back to back
  // duplicates, mid-stream and exactly at end-of-trace.
  const std::vector<uint64_t> targets = {0,         1,         total / 3,
                                         total / 3, total / 2, total - 1,
                                         total};

  const Blobs oracle = solo_oracle(configs, program, targets);
  // Cold and warm snapshots must actually differ, and the ci/vect stride
  // lanes must carry trained entries the default-stride scal blob lacks,
  // or the matrix below would pass vacuously.
  EXPECT_NE(oracle[0][0], oracle[0][4]);
  EXPECT_EQ(oracle[0][2], oracle[0][3]);  // duplicate target, same state
  EXPECT_GT(oracle[2].back().size(), oracle[0].back().size());  // ci
  EXPECT_GT(oracle[5].back().size(), oracle[0].back().size());  // vect

  EXPECT_EQ(oracle, capture_warm_states_grid(configs, program, targets))
      << "engine";
  EXPECT_EQ(oracle, capture_from(file.path(), configs, program, targets))
      << "trace";
}

TEST(WarmingPipeline, EngineHaltBeforeLastTargetMatchesSequential) {
  // The engine source snapshots targets past HALT at the final state
  // instead of throwing (a plan may legitimately overshoot); the grid
  // must agree with the sequential solo oracle on that tail behavior.
  const isa::Program program = cfir::testing::figure1_program(128);
  const std::vector<core::CoreConfig> configs = mixed_grid();
  const std::vector<uint64_t> targets = {100, 1u << 20, 1u << 21};
  const Blobs grid = capture_warm_states_grid(configs, program, targets);
  EXPECT_EQ(grid[0][1], grid[0][2]);  // both clamp to the halt state
  EXPECT_EQ(grid, solo_oracle(configs, program, targets));
}

TEST(WarmingPipeline, TinyBlockStress) {
  // 4-record CFIRTRC2 blocks: targets land on, just before and just after
  // block boundaries, so the reader crosses a boundary between almost
  // every pair of snapshots. The decoded stream (and therefore every
  // blob) must still match the solo engine oracle.
  const isa::Program program = cfir::testing::figure1_program(64);
  TempFile tiny("tiny");
  TraceMeta meta;
  meta.workload = "figure1";
  const isa::InterpResult r = record_interpreter(
      program, tiny.path(), meta, UINT64_MAX, /*block_len=*/4);
  const uint64_t total = r.executed;
  ASSERT_GT(total, uint64_t{16});
  {
    TraceReader reader(tiny.path());
    EXPECT_EQ(reader.block_len(), 4u);
    EXPECT_GE(reader.block_count(), total / 4);
  }

  const std::vector<core::CoreConfig> configs = mixed_grid();
  const std::vector<uint64_t> targets = {0, 3, 4, 5, 9, 9, total};
  EXPECT_EQ(solo_oracle(configs, program, targets),
            capture_from(tiny.path(), configs, program, targets));
}

TEST(WarmingPipeline, TruncatedTraceErrorNamesTargetAndInterval) {
  const isa::Program program = cfir::testing::figure1_program(512);
  TempFile cut("cut");
  TraceMeta meta;
  meta.workload = "figure1";
  record_interpreter(program, cut.path(), meta, /*max_insts=*/100);
  const std::vector<core::CoreConfig> configs = {sim::presets::ci(2, 256)};
  const std::vector<uint64_t> targets = {50, 150};
  try {
    (void)capture_from(cut.path(), configs, program, targets);
    FAIL() << "truncated trace accepted";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("trace ends at 100 records"), std::string::npos)
        << msg;
    EXPECT_NE(msg.find("warm target 150"), std::string::npos) << msg;
    EXPECT_NE(msg.find("(interval 1 of 2)"), std::string::npos) << msg;
  }
}

TEST(WarmingPipeline, SharedTrainersPerWarmGeometry) {
  const isa::Program program = cfir::testing::figure1_program(64);
  const std::vector<uint64_t> targets = {10, 100};
  obs::Registry& reg = obs::Registry::instance();
  obs::Counter& trainers = reg.counter("warming.trainers");
  obs::Counter& lanes = reg.counter("warming.stride_lanes");
  const auto built = [&](const std::vector<core::CoreConfig>& configs) {
    const uint64_t t0 = trainers.value();
    const uint64_t l0 = lanes.value();
    (void)capture_warm_states_grid(configs, program, targets);
    return std::make_pair(trainers.value() - t0, lanes.value() - l0);
  };
  using Built = std::pair<uint64_t, uint64_t>;

  // The perfbench grid (scal/wb/ci/vect :2:256).
  std::vector<core::CoreConfig> bench_grid;
  for (const char* spec : {"scal:2:256", "wb:2:256", "ci:2:256", "vect:2:256"}) {
    bench_grid.push_back(sim::presets::from_spec(spec));
  }
  EXPECT_EQ(built(bench_grid), Built(1, 2));

  // bench/micro_warming's 8-config grid: register counts never reach warm
  // state, and both ci points share one lane.
  const std::vector<core::CoreConfig> micro_grid = {
      sim::presets::scal(2, 256),      sim::presets::scal(2, 512),
      sim::presets::wb(2, 256),        sim::presets::wb(2, 512),
      sim::presets::ci(2, 256),        sim::presets::ci(2, 512),
      sim::presets::ci_window(2, 512), sim::presets::vect(2, 512)};
  EXPECT_EQ(built(micro_grid), Built(1, 2));

  // Two L1D sizes are two warm geometries: two trainers.
  const std::vector<core::CoreConfig> two_l1d = {
      sim::presets::scal(2, 256), with_double_l1d(sim::presets::scal(2, 256))};
  EXPECT_EQ(built(two_l1d), Built(2, 0));
  EXPECT_EQ(built(mixed_grid()), Built(2, 3));
}

TEST(WarmingPipeline, RunShardGridBitIdenticalAcrossSources) {
  const isa::Program program = cfir::testing::figure1_program(512);
  TempFile file("shard");
  TraceMeta meta;
  meta.workload = "figure1";
  record_interpreter(program, file.path(), meta);

  const IntervalPlan plan =
      plan_intervals(program, 4, 0, 0, WarmMode::kFunctional, 500);
  const std::vector<core::CoreConfig> configs = mixed_grid();
  const std::vector<ConfigBinding> bindings = bindings_for(configs);

  // Engine-warmed and trace-warmed shards against the sidecar route
  // (bind_configs blobs, as `trace_tool plan` writes them): byte-equal
  // CFIRSHD2 payloads once the wall telemetry is scrubbed.
  const auto engine = scrub_wall(run_shard(bindings, program, plan, {0, 1}, 2));
  const auto traced = scrub_wall(
      run_shard(bindings, program, plan, {0, 1}, 2, 0, file.path()));
  std::vector<std::pair<std::string, core::CoreConfig>> points;
  for (const ConfigBinding& b : bindings) points.emplace_back(b.name, b.config);
  const auto sidecar = scrub_wall(
      run_shard(bind_configs(plan, points, program), program, plan, {0, 1}, 2));
  EXPECT_EQ(engine.serialize(), traced.serialize());
  EXPECT_EQ(engine.serialize(), sidecar.serialize());
}

// ---------------------------------------------------------------------------
// WarmingPipelineS8: the oracle at paper scale. Excluded from the
// sanitizer CI job (with SamplingAccuracy / TraceV2S8 — instrumented
// builds make million-record streams too slow), still exact everywhere.
// ---------------------------------------------------------------------------

TEST(WarmingPipelineS8, GridMatrixOnBzip2) {
  const isa::Program program = workloads::build("bzip2", 8);
  TempFile file("s8");
  TraceMeta meta;
  meta.workload = "bzip2";
  meta.scale = 8;
  record_interpreter(program, file.path(), meta, /*max_insts=*/200'000);
  uint64_t total = 0;
  {
    TraceReader reader(file.path());
    total = reader.record_count();
  }
  ASSERT_GT(total, uint64_t{50'000});  // capped at 200k or ran to halt

  const std::vector<core::CoreConfig> configs = {
      sim::presets::scal(2, 256), sim::presets::wb(2, 512),
      sim::presets::ci(2, 512), sim::presets::vect(2, 512)};
  std::vector<uint64_t> targets;
  for (uint64_t i = 1; i <= 5; ++i) targets.push_back(total * i / 5);

  EXPECT_EQ(solo_oracle(configs, program, targets),
            capture_from(file.path(), configs, program, targets));

  // Sharded grid over the recorded trace, merged: the warm source must
  // never leak into the shard results either.
  const IntervalPlan plan =
      plan_intervals(program, 3, total, 0, WarmMode::kFunctional, 2000);
  const std::vector<ConfigBinding> bindings =
      bindings_for({configs[2], configs[0]});
  for (const uint32_t shard : {0u, 1u}) {
    const auto engine = scrub_wall(
        run_shard(bindings, program, plan, {shard, 2}, 2));
    const auto traced = scrub_wall(run_shard(bindings, program, plan,
                                             {shard, 2}, 2, 0, file.path()));
    EXPECT_EQ(engine.serialize(), traced.serialize()) << "shard " << shard;
  }
}

}  // namespace
}  // namespace cfir::trace
