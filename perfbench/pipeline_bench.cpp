// In-process run of the sampled-simulation pipeline, timed call by call.
//
//   pipeline_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                  --work <dir> [--tiny] [--corrupt-shard] [--reference]
//
// One repetition ("rep") runs record -> plan -> manifest write ->
// (manifest load -> run_shard -> result save) per shard -> result load ->
// merge for every program of the workload, through the same public
// functions the trace_tool verbs call. The benchmark times each call from
// here and keeps those spans in memory; nothing inside src/ is added.
// Reps repeat until --seconds of measured time is used (after one
// untimed warm-up rep), and each rep prints one JSON line of raw
// measurements. perfbench/run.py turns those lines into the reported
// metrics and checks every merged column against perfbench/golden.json.
//
// --trace 1 interleaves traced reps (obs flight recorder on, one Chrome
// trace file per rep, plus this benchmark's own spans written to
// <work>/bench_trace.json at the end) with untraced ones, so the tracing
// overhead is measured in the same process.
//
// --reference prints, for every seed variant, each merged column's digest
// and the IPC of a full detailed run over the same covered instructions —
// the data perfbench/run.py --freeze writes into golden.json.
//
// All simulation load comes from this one process and one simulation
// thread (kSimThreads): shards run one after another, and every warm job and
// detail unit runs on that thread. The spin calibration still probes four.
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/tracer.hpp"
#include "sim/presets.hpp"
#include "sim/simulator.hpp"
#include "sim/sweep.hpp"
#include "stats/stats.hpp"
#include "trace/manifest.hpp"
#include "trace/sampling.hpp"
#include "trace/shard.hpp"
#include "trace/trace.hpp"
#include "util/warmable.hpp"
#include "workloads/workloads.hpp"

namespace {

using namespace cfir;
namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

/// How the warm state reaches each (interval, config) unit.
enum class Route {
  kSidecar,   ///< plan captures per-(interval, config) warm sidecars
  kTraceFed,  ///< plan records a trace; each shard streams its own gaps
  kDetailed,  ///< no functional warming; detailed warm-up per interval
};

struct Program {
  std::string name;
  uint32_t scale = 1;
};

/// One workload: the programs, the sampling plan and the config grid.
/// Every program covers the same `budget` instructions (the run is capped
/// there), so the three programs carry equal functional and detailed work.
struct Shape {
  std::string family;  ///< golden.json key (the smarts_* pair share one)
  Route route = Route::kSidecar;
  std::vector<Program> programs;
  uint64_t budget = 0;  ///< covered instructions per program at variant 0
  uint64_t step = 0;    ///< covered-run growth per seed variant
  uint32_t intervals = 0;
  trace::WarmMode warm_mode = trace::WarmMode::kFunctional;
  uint64_t warmup = 0;
  uint64_t detail_len = 0;
  std::vector<std::string> configs;  ///< sim::presets specs
  uint32_t shards = 1;
};

/// Seeds map onto this many covered-run lengths. Each variant shifts every
/// interval boundary, so the measured slices sample other instructions at
/// the same cost; golden.json freezes every variant.
constexpr uint32_t kVariants = 16;

/// Simulation threads of a timed run. The shared 4-vCPU hosts this runs on
/// hand a process anywhere from one to four effective CPUs, changing within
/// a minute (spin calibration, sim.calib_cpus), so multi-thread wall times
/// swing up to 4x between runs. A single thread still slows under its
/// neighbours' load (rep wall times varied up to 1.6x), but it is spared
/// the swing in how many CPUs the process gets.
constexpr int kSimThreads = 1;

Shape make_shape(const std::string& workload, bool tiny) {
  Shape s;
  if (workload == "smarts_sidecar" || workload == "smarts_tracefed") {
    s.family = tiny ? "tiny_smarts" : "smarts";
    s.route = workload == "smarts_sidecar" ? Route::kSidecar
                                           : Route::kTraceFed;
    s.configs = {"scal:2:256", "wb:2:256", "ci:2:256", "vect:2:256"};
    s.warm_mode = trace::WarmMode::kFunctional;
    if (tiny) {
      s.programs = {{"bzip2", 4}, {"parser", 4}, {"twolf", 8}};
      s.budget = 200'000;
      s.intervals = 8;
      s.detail_len = 500;
      s.shards = 2;
    } else {
      s.programs = {{"bzip2", 32}, {"parser", 32}, {"twolf", 64}};
      s.budget = 2'560'000;
      s.step = 3'200;
      s.intervals = 32;
      s.detail_len = 2'000;
      s.shards = 4;
    }
  } else if (workload == "ci_detail") {
    s.family = tiny ? "tiny_ci_detail" : "ci_detail";
    s.route = Route::kDetailed;
    s.configs = {"wb:2:256", "ci:2:256", "vect:2:256"};
    s.warm_mode = trace::WarmMode::kDetailed;
    s.shards = 1;
    if (tiny) {
      s.programs = {{"bzip2", 2}, {"parser", 2}, {"twolf", 4}};
      s.budget = 100'000;
      s.intervals = 4;
      s.warmup = 2'000;
      s.detail_len = 5'000;
    } else {
      s.programs = {{"bzip2", 8}, {"parser", 8}, {"twolf", 16}};
      s.budget = 640'000;
      s.step = 800;
      s.intervals = 8;
      s.warmup = 20'000;
      s.detail_len = 60'000;
    }
  } else {
    throw std::invalid_argument("unknown workload '" + workload +
                                "' (smarts_sidecar, smarts_tracefed, "
                                "ci_detail)");
  }
  return s;
}

/// "ci:2:256" -> "ci2p": the grid column's name in metrics and golden.json.
std::string column_name(const std::string& spec) {
  const size_t a = spec.find(':');
  const size_t b = spec.find(':', a + 1);
  return spec.substr(0, a) + spec.substr(a + 1, b - a - 1) + "p";
}

int64_t now_us() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             Clock::now().time_since_epoch())
      .count();
}

int64_t cpu_us() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return (static_cast<int64_t>(ru.ru_utime.tv_sec) +
          static_cast<int64_t>(ru.ru_stime.tv_sec)) *
             1'000'000 +
         ru.ru_utime.tv_usec + ru.ru_stime.tv_usec;
}

int64_t peak_rss_kb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss;
}

/// rchar/wchar from /proc/self/io: every byte the process read or wrote
/// through read/write calls (page-cache hits included).
std::pair<uint64_t, uint64_t> io_bytes() {
  std::ifstream in("/proc/self/io");
  std::string key;
  uint64_t value = 0, rchar = 0, wchar = 0;
  while (in >> key >> value) {
    if (key == "rchar:") rchar = value;
    if (key == "wchar:") wchar = value;
  }
  return {rchar, wchar};
}

/// Effective CPUs available to `threads` spinning threads: their summed
/// thread CPU time over the wall time of the spin.
double calibrate_cpus(int threads) {
  constexpr int64_t kSpinUs = 150'000;
  std::vector<double> cpu(static_cast<size_t>(threads), 0.0);
  std::vector<std::thread> pool;
  const int64_t t0 = now_us();
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&cpu, t, t0] {
      volatile uint64_t sink = 0;
      while (now_us() - t0 < kSpinUs) {
        for (int i = 0; i < 10'000; ++i) sink = sink + static_cast<uint64_t>(i);
      }
      timespec ts{};
      clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
      cpu[static_cast<size_t>(t)] =
          static_cast<double>(ts.tv_sec) * 1e6 +
          static_cast<double>(ts.tv_nsec) / 1e3;
    });
  }
  for (std::thread& th : pool) th.join();
  const double wall = static_cast<double>(now_us() - t0);
  double total = 0;
  for (const double c : cpu) total += c;
  return wall > 0 ? total / wall : 0.0;
}

/// The benchmark's own spans: one per call into a pipeline layer, kept in
/// memory and written as Chrome trace JSON at the end of a traced run.
/// Only the main thread records, so the open-span stack gives each span
/// its parent.
class SpanLog {
 public:
  struct Event {
    std::string name;
    int64_t t0 = 0;
    int64_t t1 = 0;
    int parent = -1;
    int rep = 0;
  };

  int begin(std::string name) {
    const int id = static_cast<int>(events_.size());
    events_.push_back({std::move(name), now_us(), 0,
                       open_.empty() ? -1 : open_.back(), rep_});
    open_.push_back(id);
    return id;
  }
  /// Closes span `id` and returns its duration in microseconds.
  int64_t end(int id) {
    Event& e = events_[static_cast<size_t>(id)];
    e.t1 = now_us();
    if (!open_.empty() && open_.back() == id) open_.pop_back();
    return e.t1 - e.t0;
  }
  /// A child span whose interval the program reports itself (e.g. the
  /// warm-capture pass inside run_shard, from ShardResult::warm_wall_us).
  void add(std::string name, int64_t t0, int64_t t1) {
    events_.push_back({std::move(name), t0, t1,
                       open_.empty() ? -1 : open_.back(), rep_});
  }
  void set_rep(int rep) { rep_ = rep; }
  void clear() {
    events_.clear();
    open_.clear();
  }

  void write_chrome(const std::string& path) const {
    std::ofstream out(path);
    out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
    for (size_t i = 0; i < events_.size(); ++i) {
      const Event& e = events_[i];
      out << (i == 0 ? "" : ",\n") << "{\"ph\":\"X\",\"pid\":1,\"tid\":1,"
          << "\"name\":\"" << e.name << "\",\"ts\":" << e.t0
          << ",\"dur\":" << (e.t1 - e.t0) << ",\"args\":{\"id\":" << i
          << ",\"parent\":" << e.parent << ",\"rep\":" << e.rep << "}}";
    }
    out << "\n]}\n";
    if (!out) throw std::runtime_error("cannot write " + path);
  }

 private:
  std::vector<Event> events_;
  std::vector<int> open_;
  int rep_ = 0;
};

/// RAII wrapper for one SpanLog span; close() ends it early and returns
/// its duration.
class Timed {
 public:
  Timed(SpanLog& log, std::string name)
      : log_(log), id_(log.begin(std::move(name))) {}
  ~Timed() { close(); }
  Timed(const Timed&) = delete;
  Timed& operator=(const Timed&) = delete;
  int64_t close() {
    if (!closed_) {
      us_ = log_.end(id_);
      closed_ = true;
    }
    return us_;
  }

 private:
  SpanLog& log_;
  int id_;
  bool closed_ = false;
  int64_t us_ = 0;
};

/// Registry instrument values: counters by count, histograms by sum.
/// Deltas of two snapshots give one rep's work.
std::map<std::string, double> registry_values() {
  std::map<std::string, double> out;
  for (const obs::MetricSample& m : obs::Registry::instance().snapshot()) {
    switch (m.kind) {
      case obs::MetricSample::Kind::kCounter:
        out[m.name] = static_cast<double>(m.count);
        break;
      case obs::MetricSample::Kind::kHistogram:
        out[m.name] = static_cast<double>(m.sum);
        break;
      case obs::MetricSample::Kind::kGauge:
        break;
    }
  }
  return out;
}

/// Digest of everything simulated in one merged grid column: every
/// interval's placement, weight and measured stats, then the aggregate.
/// Host telemetry (wall times) is excluded.
uint64_t column_digest(const trace::SampledRun& run) {
  util::ByteWriter w;
  for (const auto& iv : run.intervals) {
    w.u64(iv.start_inst);
    w.u64(iv.length);
    w.u64(iv.warmup);
    uint64_t weight_bits = 0;
    std::memcpy(&weight_bits, &iv.weight, sizeof(weight_bits));
    w.u64(weight_bits);
    stats::serialize(iv.stats, w);
  }
  stats::serialize(run.aggregate, w);
  w.u64(run.total_insts);
  w.u64(run.detailed_insts);
  util::Digest d;
  d.bytes(w.data().data(), w.data().size());
  return d.value();
}

std::string hex64(uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

/// Minimal JSON object writer for the raw per-rep lines.
class Json {
 public:
  Json& num(const std::string& key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return raw(key, buf);
  }
  Json& str(const std::string& key, const std::string& v) {
    return raw(key, "\"" + json_escape(v) + "\"");
  }
  Json& raw(const std::string& key, const std::string& json) {
    body_ += (body_.empty() ? "" : ",") + ("\"" + key + "\":") + json;
    return *this;
  }
  [[nodiscard]] std::string done() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

/// `[a,b,...]` of already-serialized JSON values.
std::string json_array(const std::vector<std::string>& items) {
  std::string out = "[";
  for (size_t i = 0; i < items.size(); ++i) {
    out += (i == 0 ? "" : ",") + items[i];
  }
  return out + "]";
}

template <typename T>
std::string json_list(const std::vector<T>& v) {
  std::string out = "[";
  for (size_t i = 0; i < v.size(); ++i) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", static_cast<double>(v[i]));
    out += (i == 0 ? "" : ",") + std::string(buf);
  }
  return out + "]";
}

struct Options {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
  std::string work;
  bool tiny = false;
  bool corrupt_shard = false;
  bool reference = false;
};

int64_t sum(const std::vector<int64_t>& v) {
  int64_t total = 0;
  for (const int64_t x : v) total += x;
  return total;
}

/// Everything one rep measured, printed as one JSON line.
struct Rep {
  int64_t pipeline_us = 0, setup_us = 0, execute_us = 0, cpu_us = 0;
  uint64_t covered_insts = 0;   ///< plan-covered instructions x configs
  uint64_t detailed_insts = 0;  ///< measured + detailed warm-up, all configs
  uint64_t artifact_bytes = 0;
  uint64_t trace_bytes = 0, recorded_insts = 0;
  uint64_t bytes_read = 0, bytes_written = 0;
  uint64_t units = 0, failed_units = 0;
  std::map<std::string, int64_t> call_us;  ///< summed per layer call
  /// Wall of every timed piece of the setup and execute phases, in call
  /// order, with run_shard split into its units plus the rest of the call,
  /// and last the phase's time outside any piece (each list sums to the
  /// phase's wall). Every rep of a run yields the same pieces, so run.py
  /// can take each piece's second-slowest rep (see the README's "Timing
  /// estimator").
  std::vector<int64_t> setup_pieces, execute_pieces;
  std::vector<int64_t> run_shard_us;       ///< per shard, all programs
  std::vector<uint32_t> shard_program;     ///< per shard: program index
  std::vector<double> unit_us;             ///< every unit's wall
  std::vector<std::string> columns;        ///< per (program, config) JSON
  std::vector<std::string> errors;
  std::map<std::string, double> registry;  ///< instrument deltas
};

struct Pipeline {
  const Shape& shape;
  uint64_t budget;
  int threads;
  SpanLog& spans;
  bool corrupt_shard = false;

  std::vector<std::pair<std::string, core::CoreConfig>> points() const {
    std::vector<std::pair<std::string, core::CoreConfig>> out;
    for (const std::string& spec : shape.configs) {
      const core::CoreConfig c = sim::presets::from_spec(spec);
      out.emplace_back(c.label(), c);
    }
    return out;
  }

  /// One rep in `dir` (emptied first; left for the caller to remove).
  Rep run(const fs::path& dir) {
    Rep rep;
    fs::remove_all(dir);
    fs::create_directories(dir);
    const std::map<std::string, double> reg0 = registry_values();
    const auto [r0, w0] = io_bytes();
    const int64_t cpu0 = cpu_us();
    const int64_t t0 = now_us();
    const size_t np = shape.programs.size();
    const size_t nc = shape.configs.size();
    const auto grid = points();
    std::vector<std::string> manifests(np), traces(np);

    std::vector<int64_t>* pieces = &rep.setup_pieces;
    auto timed = [&](const char* name, auto&& fn) {
      Timed t(spans, name);
      fn();
      const int64_t us = t.close();
      rep.call_us[name] += us;
      pieces->push_back(us);
    };

    const int setup_span = spans.begin("setup");
    for (size_t p = 0; p < np; ++p) {
      const Program& prog = shape.programs[p];
      const std::string stem = (dir / (prog.name + ".s" +
                                       std::to_string(prog.scale)))
                                   .string();
      isa::Program program;
      timed("isa.build",
            [&] { program = workloads::build(prog.name, prog.scale); });
      if (shape.route == Route::kTraceFed) {
        traces[p] = stem + ".cfirtrace";
        trace::TraceMeta meta;
        meta.workload = prog.name;
        meta.scale = prog.scale;
        isa::InterpResult r;
        timed("trace.record", [&] {
          r = trace::record_interpreter(program, traces[p], meta, budget);
        });
        rep.recorded_insts += r.executed;
        rep.trace_bytes += fs::file_size(traces[p]);
      }
      trace::IntervalPlan plan;
      timed("trace.plan", [&] {
        plan = trace::plan_intervals(program, shape.intervals, budget,
                                     shape.warmup, shape.warm_mode,
                                     shape.detail_len);
      });
      rep.covered_insts += plan.total_insts * nc;
      std::vector<trace::ConfigBinding> bindings;
      if (shape.route == Route::kTraceFed) {
        // No warm state in the plan: each shard streams its own gaps
        // from the trace (trace_tool plan --no-warm).
        for (const auto& [name, config] : grid) {
          trace::ConfigBinding b;
          b.name = name;
          b.config = config;
          b.config_hash = config.digest();
          bindings.push_back(std::move(b));
        }
      } else {
        timed("trace.bind_configs",
              [&] { bindings = trace::bind_configs(plan, grid, program); });
      }
      manifests[p] = stem + ".cfirman";
      timed("trace.manifest_write", [&] {
        (void)trace::write_manifest(plan, bindings, prog.name, prog.scale,
                                    manifests[p]);
      });
    }
    rep.setup_us = spans.end(setup_span);
    rep.setup_pieces.push_back(rep.setup_us - sum(rep.setup_pieces));

    pieces = &rep.execute_pieces;
    const int execute_span = spans.begin("execute");
    for (size_t p = 0; p < np; ++p) {
      const Program& prog = shape.programs[p];
      std::vector<std::string> shard_files;
      bool program_failed = false;
      for (uint32_t s = 0; s < shape.shards; ++s) {
        const trace::ShardSelection sel{s, shape.shards};
        const std::string out = trace::path_stem(manifests[p]) + ".shard" +
                                std::to_string(s) + "of" +
                                std::to_string(shape.shards) + ".cfirshd";
        try {
          // What one worker of a shard farm does (trace_tool run-shard).
          trace::ShardManifest manifest;
          trace::IntervalPlan plan;
          std::vector<trace::ConfigBinding> bindings;
          isa::Program program;
          timed("trace.manifest_load", [&] {
            manifest = trace::ShardManifest::load(manifests[p]);
            plan = trace::plan_from_manifest(manifest, manifests[p]);
            trace::verify_manifest_plan(manifest, plan);
            bindings =
                trace::bindings_from_manifest(manifest, manifests[p], sel);
          });
          timed("isa.build", [&] {
            program = workloads::build(manifest.workload, manifest.scale);
          });
          trace::ShardResult result;
          {
            Timed t(spans, "shard.run");
            const int64_t start = now_us();
            result = trace::run_shard(bindings, program, plan, sel, threads,
                                      manifest.plan_hash, traces[p],
                                      threads);
            if (result.warm_wall_us > 0) {
              spans.add("shard.warm_capture", start,
                        start + static_cast<int64_t>(result.warm_wall_us));
            }
            const int64_t us = t.close();
            int64_t units_us = 0;
            for (const auto& iv : result.intervals) {
              for (const uint64_t w : iv.wall_us) {
                pieces->push_back(static_cast<int64_t>(w));
                units_us += static_cast<int64_t>(w);
              }
            }
            pieces->push_back(us - units_us);
            rep.call_us["shard.run"] += us;
            rep.run_shard_us.push_back(us);
            rep.shard_program.push_back(static_cast<uint32_t>(p));
          }
          timed("shard.save", [&] { result.save(out); });
          if (corrupt_shard && p == 0 && s == 0) flip_byte(out);
          shard_files.push_back(out);
        } catch (const std::exception& e) {
          program_failed = true;
          rep.errors.push_back(prog.name + " shard " + std::to_string(s) +
                               ": " + e.what());
        }
      }

      // Merge-side: load every result blob and fold the grid. Any failure
      // here or above fails every unit of this program (none of them can
      // be checked against the golden digests).
      trace::MergedGrid merged;
      if (!program_failed) {
        try {
          std::vector<trace::ShardResult> results;
          timed("shard.load", [&] {
            for (const std::string& f : shard_files) {
              results.push_back(trace::ShardResult::load(f));
            }
          });
          timed("trace.merge",
                [&] { merged = trace::merge_shard_grid(results); });
        } catch (const std::exception& e) {
          program_failed = true;
          rep.errors.push_back(prog.name + " merge: " + e.what());
        }
      }
      const uint64_t program_units = uint64_t{shape.intervals} * nc;
      rep.units += program_units;
      if (program_failed || merged.configs.size() != nc) {
        rep.failed_units += program_units;
        continue;
      }
      for (size_t c = 0; c < nc; ++c) {
        rep.columns.push_back(record_column(prog.name, shape.configs[c],
                                            merged.configs[c].run, rep));
      }
    }
    rep.execute_us = spans.end(execute_span);
    rep.execute_pieces.push_back(rep.execute_us - sum(rep.execute_pieces));
    rep.pipeline_us = now_us() - t0;
    rep.cpu_us = cpu_us() - cpu0;

    const auto [r1, w1] = io_bytes();
    rep.bytes_read = r1 - r0;
    rep.bytes_written = w1 - w0;
    for (const auto& entry : fs::recursive_directory_iterator(dir)) {
      if (entry.is_regular_file()) rep.artifact_bytes += entry.file_size();
    }
    const std::map<std::string, double> reg1 = registry_values();
    for (const auto& [name, v] : reg1) {
      const auto it = reg0.find(name);
      const double d = v - (it == reg0.end() ? 0.0 : it->second);
      if (d != 0) rep.registry[name] = d;
    }
    return rep;
  }

  /// Adds one merged grid column's unit walls and detailed instructions to
  /// `rep`, and returns the column as JSON: its digest plus the unweighted
  /// sums of the measured-slice counters the per-layer metrics are rates
  /// of.
  std::string record_column(const std::string& program,
                            const std::string& spec,
                            const trace::SampledRun& run, Rep& rep) {
    stats::SimStats sum;
    double unit_us = 0;
    for (const auto& iv : run.intervals) {
      sum.merge(iv.stats);
      unit_us += static_cast<double>(iv.wall_us);
      rep.unit_us.push_back(static_cast<double>(iv.wall_us));
    }
    rep.detailed_insts += run.detailed_insts;
    return Json()
        .str("program", program)
        .str("config", column_name(spec))
        .str("digest", hex64(column_digest(run)))
        .num("ipc", run.aggregate.ipc())
        .num("unit_us", unit_us)
        .num("detailed_insts", static_cast<double>(run.detailed_insts))
        .num("committed", static_cast<double>(sum.committed))
        .num("l1d_misses", static_cast<double>(sum.l1d_misses))
        .num("mispredicts", static_cast<double>(sum.mispredicts))
        .num("replicas_executed", static_cast<double>(sum.replicas_executed))
        .num("reused_committed", static_cast<double>(sum.reused_committed))
        .done();
  }

  /// Fault injection for the self-test: damages a saved result blob the
  /// way a bad disk or a truncated copy would.
  static void flip_byte(const std::string& path) {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekg(0, std::ios::end);
    const auto size = static_cast<std::streamoff>(f.tellg());
    f.seekg(size / 2);
    char c = 0;
    f.read(&c, 1);
    c = static_cast<char>(c ^ 0x5A);
    f.seekp(size / 2);
    f.write(&c, 1);
  }
};

std::string rep_json(const Rep& r, int index, bool warmup, bool traced,
                     const std::string& obs_trace) {
  Json calls;
  for (const auto& [name, us] : r.call_us) {
    calls.num(name, static_cast<double>(us));
  }
  Json reg;
  for (const auto& [name, v] : r.registry) reg.num(name, v);
  std::vector<std::string> errors;
  for (const std::string& e : r.errors) {
    errors.push_back("\"" + json_escape(e) + "\"");
  }
  return Json()
      .num("rep", index)
      .raw("warmup", warmup ? "true" : "false")
      .raw("traced", traced ? "true" : "false")
      .num("pipeline_us", static_cast<double>(r.pipeline_us))
      .num("setup_us", static_cast<double>(r.setup_us))
      .num("execute_us", static_cast<double>(r.execute_us))
      .num("cpu_us", static_cast<double>(r.cpu_us))
      .num("covered_insts", static_cast<double>(r.covered_insts))
      .num("detailed_insts", static_cast<double>(r.detailed_insts))
      .num("artifact_bytes", static_cast<double>(r.artifact_bytes))
      .num("trace_bytes", static_cast<double>(r.trace_bytes))
      .num("recorded_insts", static_cast<double>(r.recorded_insts))
      .num("bytes_read", static_cast<double>(r.bytes_read))
      .num("bytes_written", static_cast<double>(r.bytes_written))
      .num("units", static_cast<double>(r.units))
      .num("failed_units", static_cast<double>(r.failed_units))
      .num("peak_rss_kb", static_cast<double>(peak_rss_kb()))
      .raw("calls", calls.done())
      .raw("setup_pieces", json_list(r.setup_pieces))
      .raw("execute_pieces", json_list(r.execute_pieces))
      .raw("run_shard_us", json_list(r.run_shard_us))
      .raw("shard_program", json_list(r.shard_program))
      .raw("unit_us", json_list(r.unit_us))
      .raw("columns", json_array(r.columns))
      .raw("registry", reg.done())
      .raw("errors", json_array(errors))
      .str("obs_trace", obs_trace)
      .done();
}

/// Full detailed simulation of each (program, config) over the covered
/// instructions of every seed variant — the accuracy reference for the
/// sampled IPC. One simulator per pair runs on through the variants'
/// growing budgets, reading the cumulative IPC at each.
void print_full_ipc(const Shape& shape, int threads) {
  const size_t nc = shape.configs.size();
  const size_t n = shape.programs.size() * nc;
  const uint32_t variants = shape.step == 0 ? 1 : kVariants;
  std::vector<std::vector<double>> ipc(n);
  sim::parallel_for(
      n,
      [&](size_t i) {
        const Program& prog = shape.programs[i / nc];
        const core::CoreConfig config =
            sim::presets::from_spec(shape.configs[i % nc]);
        sim::Simulator sim(config, workloads::build(prog.name, prog.scale));
        for (uint32_t v = 0; v < variants; ++v) {
          ipc[i].push_back(sim.run(shape.budget + v * shape.step).ipc());
        }
      },
      threads);
  for (size_t i = 0; i < n; ++i) {
    std::printf("%s\n",
                Json()
                    .str("full_ipc_program", shape.programs[i / nc].name)
                    .str("config", column_name(shape.configs[i % nc]))
                    .raw("ipc", json_list(ipc[i]))
                    .done()
                    .c_str());
  }
}

bool parse_args(int argc, char** argv, Options& o) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--workload" && has_value) {
      o.workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      o.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds" && has_value) {
      o.seconds = std::strtod(argv[++i], nullptr);
    } else if (a == "--trace" && has_value) {
      o.trace = std::string(argv[++i]) == "1";
    } else if (a == "--work" && has_value) {
      o.work = argv[++i];
    } else if (a == "--tiny") {
      o.tiny = true;
    } else if (a == "--corrupt-shard") {
      o.corrupt_shard = true;
    } else if (a == "--reference") {
      o.reference = true;
    } else {
      return false;
    }
  }
  return !o.workload.empty() && !o.work.empty() && o.seconds > 0;
}

int run(const Options& opt) {
  const Shape shape = make_shape(opt.workload, opt.tiny);
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  const int threads = opt.reference ? std::clamp(hw, 1, 4) : kSimThreads;
  const uint32_t variants = shape.step == 0 ? 1 : kVariants;
  const fs::path work = opt.work;
  fs::create_directories(work);
  SpanLog spans;

  const uint32_t variant = static_cast<uint32_t>(opt.seed % variants);
  std::printf("%s\n",
              Json()
                  .str("workload", opt.workload)
                  .str("family", shape.family)
                  .num("variant", variant)
                  .num("intervals", shape.intervals)
                  .num("threads", threads)
                  .num("hw_threads", hw)
                  .num("calib_cpus", calibrate_cpus(std::clamp(hw, 1, 4)))
                  .str("compiler", __VERSION__)
                  .str("build_type", CFIR_BENCH_BUILD_TYPE)
                  .done()
                  .c_str());
  std::fflush(stdout);

  if (opt.reference) {
    for (uint32_t v = 0; v < variants; ++v) {
      Pipeline pipe{shape, shape.budget + v * shape.step, threads, spans};
      const Rep r = pipe.run(work / ("variant" + std::to_string(v)));
      fs::remove_all(work / ("variant" + std::to_string(v)));
      if (r.failed_units != 0) {
        for (const std::string& e : r.errors) {
          std::fprintf(stderr, "pipeline_bench: %s\n", e.c_str());
        }
        return 1;
      }
      std::printf("%s\n", Json()
                              .num("variant", v)
                              .raw("columns", json_array(r.columns))
                              .done()
                              .c_str());
      std::fflush(stdout);
    }
    print_full_ipc(shape, threads);
    return 0;
  }

  Pipeline pipe{shape, shape.budget + variant * shape.step, threads, spans,
                opt.corrupt_shard};
  const int64_t budget_us = static_cast<int64_t>(opt.seconds * 1e6);
  int64_t measured_us = 0;
  int measured = 0, traced_reps = 0, untraced_reps = 0;
  std::vector<int64_t> rep_walls;
  for (int index = 0;; ++index) {
    const bool warmup = index == 0;
    // Traced runs alternate traced and untraced reps, starting traced.
    const bool traced = opt.trace && !warmup && traced_reps <= untraced_reps;
    const fs::path dir = work / ("rep" + std::to_string(index));
    std::string obs_trace;
    spans.set_rep(index);
    if (traced) {
      obs_trace = (work / ("obs_rep" + std::to_string(index) + ".json"))
                      .string();
      obs::Tracer::instance().start(obs_trace);
    }
    const int64_t t0 = now_us();
    const Rep r = pipe.run(dir);
    const int64_t wall = now_us() - t0;
    if (traced) obs::Tracer::instance().stop();
    if (!opt.trace) spans.clear();  // spans are written by traced runs only
    fs::remove_all(dir);
    std::printf("%s\n", rep_json(r, index, warmup, traced, obs_trace).c_str());
    std::fflush(stdout);
    if (warmup) continue;
    ++measured;
    (traced ? traced_reps : untraced_reps) += 1;
    measured_us += wall;
    rep_walls.push_back(wall);
    // Stop once the next rep would overrun --seconds, with enough reps for
    // a median (traced: three traced reps, so every workload pools enough
    // unit samples for a p95 with ten beyond it).
    std::vector<int64_t> sorted = rep_walls;
    std::sort(sorted.begin(), sorted.end());
    const int64_t typical = sorted[sorted.size() / 2];
    const bool enough = opt.trace ? traced_reps >= 3 && untraced_reps >= 2
                                  : measured >= 3;
    if (enough && measured_us + typical > budget_us) break;
  }
  if (opt.trace) spans.write_chrome((work / "bench_trace.json").string());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse_args(argc, argv, opt)) {
    std::fprintf(stderr,
                 "usage: pipeline_bench --workload <smarts_sidecar|"
                 "smarts_tracefed|ci_detail> --seed <n> --seconds <s> "
                 "--trace <0|1> --work <dir> [--tiny] [--corrupt-shard] "
                 "[--reference]\n");
    return 2;
  }
  // Pin the thread shape before anything sizes the shared pool: every
  // simulation thread the pipeline starts comes from this budget. Only the
  // untimed --reference runs use more than one.
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  const std::string threads =
      std::to_string(opt.reference ? std::clamp(hw, 1, 4) : kSimThreads);
  setenv("CFIR_THREADS", threads.c_str(), 1);
  setenv("CFIR_WARM_JOBS", threads.c_str(), 1);
  try {
    return run(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pipeline_bench: %s\n", e.what());
    return 1;
  }
}
