// Functional-warming throughput: shared grid capture
// (capture_warm_states_grid — one commit-path trainer per warm geometry
// plus one stride lane per stride-training policy) versus warming the same
// grid config by config with one single-config grid capture each, both
// trace-fed from a recorded CFIRTRC2 file — the route the shard runner's
// warm-gap pass takes. Three grid widths:
//
//   1-config   ci:2:512 alone: shared and solo run the same capture, so
//              the two columns should match
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
//
// A second table attributes the warm-capture layer on the end-to-end
// benchmark's SMARTS shape — bzip2 s32, parser s32 and twolf s64, capped
// at 2.56M instructions, the scal/wb/ci/vect :2:256 grid, 32 evenly
// spaced targets — in three rows per program:
//
//   decode     span reads over the whole CFIRTRC2 trace, no training:
//              what reading the trace costs per record
//   trace-fed  capture_warm_states_grid streaming the trace
//   engine-fed capture_warm_states_grid re-executing the program on the
//              functional engine instead
//
// so "is trace-fed warming cheaper than re-execution?" is one column
// (trace/engine) and the decode share of it another. Under CFIR_JSON=1
// each row is a line with mode "decode", "trace_fed" or "engine_fed".
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
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

/// Warms the grid config by config: one single-config capture pass over
/// the trace per config, the cost shared capture amortizes.
Blobs solo_captures(const std::vector<core::CoreConfig>& configs,
                    const isa::Program& program, trace::TraceReader& reader,
                    const std::vector<uint64_t>& targets) {
  Blobs out;
  for (const core::CoreConfig& config : configs) {
    out.push_back(std::move(
        trace::capture_warm_states_grid({config}, program, reader, targets)
            .front()));
  }
  return out;
}

void emit_json(const std::string& workload, uint32_t scale, size_t n_configs,
               const char* mode, const Cell& cell) {
  if (!bench::json_requested()) return;
  std::printf("{\"bench\":\"micro_warming\",\"workload\":\"%s\","
              "\"scale\":%u,\"configs\":%zu,\"mode\":\"%s\","
              "\"insts\":%llu,\"wall_us\":%.1f,"
              "\"warm_insts_per_sec\":%.1f}\n",
              workload.c_str(), scale, n_configs, mode,
              static_cast<unsigned long long>(cell.insts), cell.best_us,
              cell.warm_insts_per_sec());
}

/// Where decode_only leaves its checksum, so the decode is not optimized
/// away.
volatile uint64_t g_decode_sink = 0;

/// Reads every record through span reads, no training.
void decode_only(trace::TraceReader& reader) {
  uint64_t fold = 0;
  const trace::TraceRecord* span = nullptr;
  while (const size_t n = reader.read_span(span, UINT64_MAX)) {
    for (size_t i = 0; i < n; ++i) {
      fold = fold * 31 + (span[i].pc ^ span[i].addr);
    }
  }
  g_decode_sink = fold;
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
  trace::record_interpreter(program, path, meta, cap);

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
    emit_json(workload, scale, configs.size(), "shared", shared);
    emit_json(workload, scale, configs.size(), "solo_sum", solo);
  }
  std::remove(path.c_str());

  // Layer attribution on the end-to-end SMARTS shape.
  const std::vector<core::CoreConfig> smarts = {
      sim::presets::scal(2, 256), sim::presets::wb(2, 256),
      sim::presets::ci(2, 256), sim::presets::vect(2, 256)};
  std::printf("\nwarm-capture layer, ms (%zu-config grid, 32 targets, "
              "2.56M-inst cap, best of %d)\n",
              smarts.size(), repeats);
  std::printf("%-7s %5s %9s | %8s %6s | %9s %10s | %11s\n", "program",
              "scale", "records", "decode", "ns/rec", "trace-fed",
              "engine-fed", "trace/engine");
  for (const auto& [name, prog_scale] :
       {std::pair<const char*, uint32_t>{"bzip2", 32}, {"parser", 32},
        {"twolf", 64}}) {
    const isa::Program prog = workloads::build(name, prog_scale);
    const std::string trace_path = temp_trace_path();
    trace::TraceMeta m;
    m.workload = name;
    m.scale = prog_scale;
    trace::record_interpreter(prog, trace_path, m, 2'560'000);
    uint64_t records = 0;
    {
      trace::TraceReader reader(trace_path);
      records = reader.record_count();
    }
    std::vector<uint64_t> grid_targets;
    for (uint64_t i = 1; i <= 32; ++i) {
      grid_targets.push_back(records * i / 32);
    }
    Blobs trace_blobs;
    Blobs engine_blobs;
    const Cell decode = best_of(trace_path, repeats, trace_blobs,
                                [&](trace::TraceReader& reader) {
                                  decode_only(reader);
                                  return Blobs{};
                                });
    const Cell traced = best_of(trace_path, repeats, trace_blobs,
                                [&](trace::TraceReader& reader) {
                                  return trace::capture_warm_states_grid(
                                      smarts, prog, reader, grid_targets);
                                });
    const Cell engine = best_of(trace_path, repeats, engine_blobs,
                                [&](trace::TraceReader&) {
                                  return trace::capture_warm_states_grid(
                                      smarts, prog, grid_targets);
                                });
    if (trace_blobs != engine_blobs) {
      std::fprintf(stderr, "%s: trace-fed blobs differ from engine-fed?\n",
                   name);
    }
    std::printf("%-7s %5u %9llu | %8.1f %6.1f | %9.1f %10.1f | %10.2fx\n",
                name, prog_scale, static_cast<unsigned long long>(records),
                decode.best_us / 1e3,
                decode.best_us * 1e3 / static_cast<double>(records),
                traced.best_us / 1e3, engine.best_us / 1e3,
                traced.best_us / engine.best_us);
    emit_json(name, prog_scale, 0, "decode", decode);
    emit_json(name, prog_scale, smarts.size(), "trace_fed", traced);
    emit_json(name, prog_scale, smarts.size(), "engine_fed", engine);
    std::remove(trace_path.c_str());
  }

  if (bench::json_requested()) {
    std::printf("{\"telemetry\":true,\"bench\":\"micro_warming\","
                "\"wall_ms\":%.3f,\"metrics\":%s}\n",
                static_cast<double>(bench_clock.elapsed_us()) / 1e3,
                obs::Registry::instance().to_json().c_str());
  }
  return 0;
}
