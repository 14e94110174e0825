// Functional-warming throughput: shared grid capture
// (capture_warm_states_grid — one commit-path trainer per warm geometry
// plus one stride lane per stride-training policy) versus warming the same
// grid config by config with solo FunctionalWarmers, both trace-fed from a
// recorded CFIRTRC2 file — the shape the shard runner's warm-gap pass
// uses. Three grid widths:
//
//   1-config   ci:2:512 alone: shared capture is a solo warmer plus one
//              lane, so the two columns should match
//   3-config   wb/ci/vect :2:256, one warm geometry, three policies
//   8-config   scal/wb/ci at 256 and 512 registers, ci-iw and vect: still
//              one warm geometry, two stride lanes
//
// Each row prints million warmed insts/sec for one shared pass and for the
// sum of the solo passes (records streamed / total wall), plus the
// amortization factor solo-sum wall / shared wall. Under CFIR_JSON=1 it
// emits one line per (configs, mode) cell with `warm_insts_per_sec` and a
// final `telemetry` line with the obs::Registry snapshot (trainer and
// stride-lane counters included).
//
// Bit-identity between the two columns is locked in
// tests/test_warming_pipeline.cpp; here the blobs are compared anyway as a
// cheap tripwire.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/config.hpp"
#include "obs/metrics.hpp"
#include "sim/presets.hpp"
#include "trace/trace.hpp"
#include "trace/warming.hpp"
#include "workloads/workloads.hpp"

namespace {

using namespace cfir;

using Blobs = std::vector<std::vector<std::vector<uint8_t>>>;

struct Cell {
  uint64_t insts = 0;  ///< committed records streamed per capture pass
  double best_us = 0.0;
  [[nodiscard]] double warm_insts_per_sec() const {
    return best_us > 0.0 ? static_cast<double>(insts) * 1e6 / best_us : 0.0;
  }
};

/// Runs `capture` (fresh TraceReader each time, so every sample pays block
/// decode) `repeats` times; keeps the best wall time and the last blobs.
template <typename Capture>
Cell best_of(const std::string& trace_path, int repeats, Blobs& blobs,
             Capture&& capture) {
  Cell cell;
  cell.best_us = 1e18;
  for (int r = 0; r < repeats; ++r) {
    trace::TraceReader reader(trace_path);
    cell.insts = reader.record_count();
    const obs::Stopwatch clock;
    blobs = capture(reader);
    cell.best_us =
        std::min(cell.best_us, static_cast<double>(clock.elapsed_us()));
  }
  return cell;
}

/// Warms the grid config by config: one solo FunctionalWarmer pass over
/// the trace per config, the cost shared capture amortizes.
Blobs solo_captures(const std::vector<core::CoreConfig>& configs,
                    const isa::Program& program, trace::TraceReader& reader,
                    const std::vector<uint64_t>& targets) {
  Blobs out;
  for (const core::CoreConfig& config : configs) {
    trace::FunctionalWarmer warmer(config, program);
    std::vector<std::vector<uint8_t>> per_target;
    for (const uint64_t target : targets) {
      warmer.advance_on_trace(reader, target);
      per_target.push_back(warmer.serialize_state());
    }
    out.push_back(std::move(per_target));
  }
  return out;
}

void emit_json(const std::string& workload, size_t n_configs,
               const char* mode, const Cell& cell) {
  if (!bench::json_requested()) return;
  std::printf("{\"bench\":\"micro_warming\",\"workload\":\"%s\","
              "\"configs\":%zu,\"mode\":\"%s\",\"insts\":%llu,"
              "\"wall_us\":%.1f,\"warm_insts_per_sec\":%.1f}\n",
              workload.c_str(), n_configs, mode,
              static_cast<unsigned long long>(cell.insts), cell.best_us,
              cell.warm_insts_per_sec());
}

std::string temp_trace_path() {
  const char* dir = std::getenv("TMPDIR");
  return std::string(dir ? dir : "/tmp") + "/cfir_micro_warming_" +
         std::to_string(static_cast<unsigned long>(std::rand())) + ".trc";
}

}  // namespace

int main() {
  const std::string workload = "bzip2";
  const uint32_t scale = 8;
  const uint64_t cap = 1'000'000;
  const int repeats = 3;

  const isa::Program program = workloads::build(workload, scale);
  const std::string path = temp_trace_path();
  trace::TraceMeta meta;
  meta.workload = workload;
  meta.scale = scale;
  trace::record_interpreter(program, path, meta, cap,
                            trace::TraceFormat::kV2);

  uint64_t total = 0;
  {
    trace::TraceReader reader(path);
    total = reader.record_count();
  }
  // Eight evenly spaced warm targets, like an 8-interval functional plan.
  std::vector<uint64_t> targets;
  for (uint64_t i = 1; i <= 8; ++i) targets.push_back(total * i / 8);

  const std::vector<core::CoreConfig> one = {sim::presets::ci(2, 512)};
  const std::vector<core::CoreConfig> three = {sim::presets::wb(2, 256),
                                               sim::presets::ci(2, 256),
                                               sim::presets::vect(2, 256)};
  const std::vector<core::CoreConfig> eight = {
      sim::presets::scal(2, 256),     sim::presets::scal(2, 512),
      sim::presets::wb(2, 256),       sim::presets::wb(2, 512),
      sim::presets::ci(2, 256),       sim::presets::ci(2, 512),
      sim::presets::ci_window(2, 512), sim::presets::vect(2, 512)};

  std::printf("trace-fed warm capture, Mi warmed insts/s "
              "(%s scale %u, %llu records, 8 targets, best of %d)\n",
              workload.c_str(), scale,
              static_cast<unsigned long long>(total), repeats);
  std::printf("%-9s | %10s %10s %8s\n", "grid", "shared", "solo-sum",
              "amortize");

  obs::Registry::instance().reset();
  const obs::Stopwatch bench_clock;
  for (const auto* entry : {&one, &three, &eight}) {
    const std::vector<core::CoreConfig>& configs = *entry;
    Blobs shared_blobs;
    Blobs solo_blobs;
    const Cell shared = best_of(path, repeats, shared_blobs,
                                [&](trace::TraceReader& reader) {
                                  return trace::capture_warm_states_grid(
                                      configs, program, reader, targets);
                                });
    const Cell solo = best_of(path, repeats, solo_blobs,
                              [&](trace::TraceReader& reader) {
                                return solo_captures(configs, program, reader,
                                                     targets);
                              });
    if (shared_blobs != solo_blobs) {
      std::fprintf(stderr, "%zu-config: shared blobs differ from solo?\n",
                   configs.size());
    }
    std::printf("%zu-config | %10.2f %10.2f %7.2fx\n", configs.size(),
                shared.warm_insts_per_sec() / 1e6,
                solo.warm_insts_per_sec() / 1e6,
                solo.best_us / shared.best_us);
    emit_json(workload, configs.size(), "shared", shared);
    emit_json(workload, configs.size(), "solo_sum", solo);
  }
  if (bench::json_requested()) {
    std::printf("{\"telemetry\":true,\"bench\":\"micro_warming\","
                "\"wall_ms\":%.3f,\"metrics\":%s}\n",
                static_cast<double>(bench_clock.elapsed_us()) / 1e3,
                obs::Registry::instance().to_json().c_str());
  }

  std::remove(path.c_str());
  return 0;
}
