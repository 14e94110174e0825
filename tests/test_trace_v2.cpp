// The columnar seekable trace format (CFIRTRC2, src/trace/trace_v2.cpp),
// proven differentially against the live functional engine and the
// reference interpreter, and fuzzed for corruption robustness:
//
//  - ~200 random seeded programs round-trip and honor seek_to at
//    arbitrary targets (the tail after a seek equals the same slice of a
//    sequential read), including block boundaries, the first/last record,
//    end-of-stream, and past-EOF;
//  - any single flipped bit — block payload, block CRC, index footer,
//    header — is rejected with the typed trace/errors.hpp exceptions, as
//    is truncation mid-block and mid-footer (CRC-32 catches all
//    single-bit errors, and the index CRC covers the header, so the only
//    unverified bytes are the whole-file footer's CRC value itself);
//  - warm-state blobs, BBVs and merged shard stats computed through a
//    trace reader are bit-identical to the engine pass;
//  - a shard fed a recorded trace decodes only the blocks covering its
//    own intervals + warming gaps (trace.blocks_read counter);
//  - the TraceV2S8 suite runs the acceptance matrix on bzip2/parser/twolf
//    s8, including the size guard against the retired row-oriented
//    CFIRTRC1 size (skipped on Debug / sanitized builds, where recording a
//    million instructions is slow — the size itself is deterministic and
//    guarded in Release CI).
#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <fstream>
#include <random>
#include <string>
#include <vector>

#include "helpers.hpp"
#include "isa/engine.hpp"
#include "mem/main_memory.hpp"
#include "obs/metrics.hpp"
#include "sim/presets.hpp"
#include "trace/bbv.hpp"
#include "trace/errors.hpp"
#include "trace/sampling.hpp"
#include "trace/shard.hpp"
#include "trace/trace.hpp"
#include "trace/warming.hpp"
#include "util/warmable.hpp"
#include "workloads/workloads.hpp"

namespace cfir::trace {
namespace {

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif
#else
constexpr bool kSanitized = false;
#endif

#ifdef NDEBUG
constexpr bool kOptimized = true;
#else
constexpr bool kOptimized = false;
#endif

class TempFile {
 public:
  explicit TempFile(const std::string& tag)
      : path_(std::string(::testing::TempDir()) + "cfir_v2_" + tag + "_" +
              std::to_string(reinterpret_cast<uintptr_t>(this))) {}
  ~TempFile() { std::remove(path_.c_str()); }
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
};

std::vector<uint8_t> file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<uint8_t>((std::istreambuf_iterator<char>(in)),
                              std::istreambuf_iterator<char>());
}

void write_bytes(const std::string& path, const std::vector<uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

/// Full sequential decode of a trace file.
std::vector<TraceRecord> read_all(const std::string& path) {
  TraceReader reader(path);
  std::vector<TraceRecord> out;
  out.reserve(reader.record_count());
  TraceRecord rec;
  while (reader.next(rec)) out.push_back(rec);
  return out;
}

/// SimStats as its canonical serialized bytes, for bit-identity checks.
std::vector<uint8_t> stats_bytes(const stats::SimStats& s) {
  util::ByteWriter w;
  stats::serialize(s, w);
  return w.take();
}

TEST(TraceV2, SeekPropertyRandomPrograms) {
  // ~200 seeded programs, tiny block capacity so every stream spans many
  // blocks, random seek targets: the tail read after seek_to(t) must equal
  // records [t, end) of a sequential read.
  for (uint64_t seed = 1; seed <= 200; ++seed) {
    const isa::Program program = cfir::testing::random_program(seed);
    TempFile file("seek" + std::to_string(seed));
    TraceMeta meta;
    meta.workload = "random";
    record_interpreter(program, file.path(), meta, UINT64_MAX, 61);

    const std::vector<TraceRecord> all = read_all(file.path());
    ASSERT_FALSE(all.empty()) << "seed " << seed;

    TraceReader reader(file.path());
    ASSERT_EQ(reader.record_count(), all.size());
    std::mt19937_64 gen(seed * 7919);
    TraceRecord rec;
    for (int probe = 0; probe < 6; ++probe) {
      const uint64_t target = gen() % (all.size() + 1);
      reader.seek_to(target);
      EXPECT_EQ(reader.position(), target);
      // Decode a bounded tail, not the whole remainder, so 200 programs
      // stay cheap; correctness of the full tail follows inductively.
      const uint64_t tail =
          std::min<uint64_t>(all.size() - target, 64 + gen() % 64);
      for (uint64_t i = 0; i < tail; ++i) {
        ASSERT_TRUE(reader.next(rec))
            << "seed " << seed << " target " << target << " +" << i;
        ASSERT_EQ(rec, all[target + i])
            << "seed " << seed << " target " << target << " +" << i;
      }
      if (target == all.size()) EXPECT_FALSE(reader.next(rec));
    }
    // Past-EOF is a programming error, not a quiet empty stream.
    EXPECT_THROW(reader.seek_to(all.size() + 1), std::out_of_range);
    EXPECT_THROW(reader.seek_to(all.size() + gen() % 1000 + 1),
                 std::out_of_range);
  }
}

TEST(TraceV2, SeekEdgesOnBlockBoundaries) {
  const isa::Program program = cfir::testing::figure1_program(256, 50, 11);
  TempFile file("edges");
  TraceMeta meta;
  meta.workload = "figure1";
  record_interpreter(program, file.path(), meta, UINT64_MAX, 128);

  const std::vector<TraceRecord> all = read_all(file.path());
  TraceReader reader(file.path());
  ASSERT_GT(reader.block_count(), size_t{3});
  EXPECT_EQ(reader.block_len(), 128u);

  TraceRecord rec;
  // Every block's first record, the record just before each boundary, the
  // very first and very last record, and the end-of-stream position.
  for (size_t b = 0; b < reader.block_count(); ++b) {
    const uint64_t first = reader.block_first_record(b);
    reader.seek_to(first);
    ASSERT_TRUE(reader.next(rec));
    EXPECT_EQ(rec, all[first]) << "block " << b;
    if (first > 0) {
      reader.seek_to(first - 1);
      ASSERT_TRUE(reader.next(rec));
      EXPECT_EQ(rec, all[first - 1]) << "block " << b;
    }
  }
  reader.seek_to(all.size() - 1);
  ASSERT_TRUE(reader.next(rec));
  EXPECT_EQ(rec, all.back());
  EXPECT_FALSE(reader.next(rec));
  reader.seek_to(all.size());  // valid EOF position
  EXPECT_FALSE(reader.next(rec));
  reader.seek_to(0);
  ASSERT_TRUE(reader.next(rec));
  EXPECT_EQ(rec, all.front());
  EXPECT_THROW(reader.seek_to(all.size() + 1), std::out_of_range);
  EXPECT_THROW(reader.decode_block(reader.block_count()), std::out_of_range);
}

TEST(TraceV2, EveryBitFlipIsRejectedTyped) {
  // CRC-32 detects all single-bit errors and the index CRC covers the
  // header, so EVERY flipped bit — except within the whole-file footer's
  // CRC value, which TraceReader deliberately does not verify (blob-level
  // tools do) — must surface as a typed trace/errors.hpp exception at open
  // or during the full decode. Never a wrong stream, never a crash.
  const isa::Program program = cfir::testing::figure1_program(128, 50, 13);
  TempFile file("flip");
  TraceMeta meta;
  meta.workload = "figure1";
  record_interpreter(program, file.path(), meta, UINT64_MAX, 256);
  const std::vector<uint8_t> good = file_bytes(file.path());
  const std::vector<TraceRecord> all = read_all(file.path());

  std::mt19937_64 gen(1337);
  int rejected = 0;
  for (int trial = 0; trial < 300; ++trial) {
    // Flip anywhere except the final 4 bytes (the unverified CRC value).
    const size_t byte = gen() % (good.size() - 4);
    std::vector<uint8_t> bad = good;
    bad[byte] ^= static_cast<uint8_t>(1u << (gen() % 8));
    write_bytes(file.path(), bad);
    try {
      const std::vector<TraceRecord> decoded = read_all(file.path());
      ADD_FAILURE() << "flip at byte " << byte << " was not detected";
    } catch (const BadMagicError&) {
      ++rejected;  // flip landed in the leading magic
    } catch (const VersionError&) {
      ++rejected;  // flip landed in the version word
    } catch (const CorruptFileError&) {
      ++rejected;  // everything else: CRCs and structural validation
    } catch (const std::exception& e) {
      // A flip in record_count can fake the unfinished sentinel before the
      // index CRC would catch it; that still refuses to decode.
      EXPECT_NE(std::string(e.what()).find("unfinished"), std::string::npos)
          << "flip at byte " << byte << " raised: " << e.what();
      ++rejected;
    }
  }
  EXPECT_EQ(rejected, 300);
  write_bytes(file.path(), good);
  EXPECT_EQ(read_all(file.path()), all);  // pristine bytes still decode
}

TEST(TraceV2, TargetedCorruptionHitsEveryRegion) {
  // The random sweep above is the safety net; this pins each structural
  // region by name so a future refactor cannot quietly drop one check.
  const isa::Program program = cfir::testing::figure1_program(128, 50, 17);
  TempFile file("region");
  TraceMeta meta;
  meta.workload = "figure1";
  record_interpreter(program, file.path(), meta, UINT64_MAX, 256);
  const std::vector<uint8_t> good = file_bytes(file.path());

  TraceReader probe(file.path());
  const size_t n_blocks = probe.block_count();
  ASSERT_GT(n_blocks, size_t{1});
  const size_t header_size = 560 + meta.workload.size();
  const size_t index_offset =
      good.size() - 40 - n_blocks * 20;  // entries + tail, see trace_v2.hpp

  const auto expect_corrupt = [&](size_t byte, const char* what) {
    std::vector<uint8_t> bad = good;
    bad[byte] ^= 0x10;
    write_bytes(file.path(), bad);
    EXPECT_THROW(read_all(file.path()), CorruptFileError) << what;
  };
  // Mid-payload of the first block, its trailing CRC, an index entry, the
  // index tail fields, the index CRC itself, and a header byte (covered by
  // the index CRC, so open — not decode — rejects it).
  expect_corrupt(header_size + (index_offset - header_size) / 2,
                 "block payload");
  expect_corrupt(index_offset + 3, "index entry");
  expect_corrupt(good.size() - 40 + 2, "index n_blocks field");
  expect_corrupt(good.size() - 32 + 2, "index offset field");
  expect_corrupt(good.size() - 12, "index CRC");
  expect_corrupt(100, "header bytes (final regs)");

  // Truncations: mid-block, mid-index, mid-footer, and a near-empty stub.
  for (const size_t keep :
       {header_size + 5, index_offset - 3, index_offset + 7, good.size() - 2,
        good.size() - 17, size_t{12}}) {
    std::vector<uint8_t> bad(good.begin(),
                             good.begin() + static_cast<std::ptrdiff_t>(keep));
    write_bytes(file.path(), bad);
    EXPECT_THROW(read_all(file.path()), CorruptFileError)
        << "truncated to " << keep << " bytes";
  }
}

TEST(TraceV2, UnfinishedRecordingRejected) {
  const isa::Program program = cfir::testing::figure1_program(64, 50, 19);
  TempFile file("unfinished");
  TraceMeta meta;
  meta.workload = "figure1";
  {
    TraceWriter writer(file.path(), meta, 32);
    TraceRecord rec;
    rec.pc = meta.base_pc;
    for (int i = 0; i < 100; ++i) {
      writer.append(rec);
      rec.pc += isa::kInstBytes;
    }
    // No finish(): the header keeps the sentinel record count.
  }
  try {
    TraceReader reader(file.path());
    FAIL() << "unfinished v2 trace was accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("unfinished"), std::string::npos)
        << e.what();
  }
}

TEST(TraceV2, WarmStateBlobsBitIdenticalAcrossSources) {
  // The same warm-capture grid, fed from the engine pass and from a
  // recorded trace, must produce byte-identical serialized warmer blobs:
  // the recorded stream IS the engine's event stream.
  const isa::Program program = cfir::testing::figure1_program(512, 40, 29);
  TempFile file("warm");
  TraceMeta meta;
  meta.workload = "figure1";
  record_interpreter(program, file.path(), meta, UINT64_MAX, 512);

  const std::vector<core::CoreConfig> configs = {sim::presets::ci(2, 256),
                                                 sim::presets::ci(4, 512)};
  TraceReader reader(file.path());
  const uint64_t total = reader.record_count();
  const std::vector<uint64_t> targets = {total / 4, total / 2, total - 7};

  EXPECT_EQ(capture_warm_states_grid(configs, program, targets),
            capture_warm_states_grid(configs, program, reader, targets));
}

TEST(TraceV2, BbvParallelDecodeMatchesSequentialAndLive) {
  const isa::Program program = cfir::testing::figure1_program(512, 50, 31);
  TempFile file("bbv");
  TraceMeta meta;
  meta.workload = "figure1";
  record_interpreter(program, file.path(), meta, UINT64_MAX, 64);

  const BbvSet live = bbv_from_program(program, 500);
  TraceReader reader(file.path());
  ASSERT_GT(reader.block_count(), size_t{32});  // crosses a parallel wave
  const BbvSet from_trace = bbv_from_trace(reader, 500);

  EXPECT_EQ(live.leaders, from_trace.leaders);
  EXPECT_EQ(live.vectors, from_trace.vectors);
  EXPECT_EQ(live.total_insts, from_trace.total_insts);
}

TEST(TraceV2, ShardDecodesOnlyCoveringBlocks) {
  // A 2-shard split of a functionally warmed plan, with warming streamed
  // from the recorded trace: each shard's trace.blocks_read delta must
  // stay below the file's block count (it stops at its own last target),
  // and the merged grid must be bit-identical — architectural stats,
  // weights, instruction accounting — whether warming came from the
  // engine pass or the trace.
  const isa::Program program = cfir::testing::figure1_program(768, 45, 37);
  TempFile file("shard");
  TraceMeta meta;
  meta.workload = "figure1";
  record_interpreter(program, file.path(), meta, UINT64_MAX, 512);

  IntervalPlan plan = plan_intervals(program, 4, 0, 0, WarmMode::kFunctional);
  // Deferred warming: bindings carry no blobs, so run_shard streams the
  // gaps itself — through the trace when one is provided.
  std::vector<ConfigBinding> bindings;
  for (const uint32_t regs : {256u, 512u}) {
    ConfigBinding b;
    b.config = sim::presets::ci(2, regs);
    b.name = b.config.label();
    b.config_hash = b.config.digest();
    bindings.push_back(std::move(b));
  }

  const size_t total_blocks = TraceReader(file.path()).block_count();
  ASSERT_GT(total_blocks, size_t{2});
  obs::Counter& blocks_read =
      obs::Registry::instance().counter("trace.blocks_read");

  const uint64_t before0 = blocks_read.value();
  const ShardResult t_s0 =
      run_shard(bindings, program, plan, {0, 2}, 2, 0, file.path());
  const uint64_t shard0_blocks = blocks_read.value() - before0;
  const ShardResult t_s1 =
      run_shard(bindings, program, plan, {1, 2}, 2, 0, file.path());

  // Shard 0's last warm target is interval 2's start (< interval 3's), so
  // it must not have decoded the file's tail blocks.
  EXPECT_GT(shard0_blocks, uint64_t{0});
  EXPECT_LT(shard0_blocks, total_blocks);

  const ShardResult eng_s0 = run_shard(bindings, program, plan, {0, 2}, 2);
  const ShardResult eng_s1 = run_shard(bindings, program, plan, {1, 2}, 2);

  const MergedGrid from_engine = merge_shard_grid({eng_s0, eng_s1});
  const MergedGrid from_trace = merge_shard_grid({t_s0, t_s1});
  ASSERT_EQ(from_engine.configs.size(), bindings.size());
  for (size_t c = 0; c < from_engine.configs.size(); ++c) {
    const SampledRun& e = from_engine.configs[c].run;
    const SampledRun& o = from_trace.configs[c].run;
    EXPECT_EQ(stats_bytes(e.aggregate), stats_bytes(o.aggregate));
    EXPECT_EQ(e.total_insts, o.total_insts);
    EXPECT_EQ(e.detailed_insts, o.detailed_insts);
    EXPECT_EQ(e.warmed_insts, o.warmed_insts);
    ASSERT_EQ(e.intervals.size(), o.intervals.size());
    for (size_t i = 0; i < e.intervals.size(); ++i) {
      EXPECT_EQ(stats_bytes(e.intervals[i].stats),
                stats_bytes(o.intervals[i].stats));
      EXPECT_EQ(e.intervals[i].weight, o.intervals[i].weight);
    }
  }
}

// ---------------------------------------------------------------------------
// TraceV2S8: the acceptance matrix on the paper workloads at scale 8.
// Excluded from the sanitizer CI job (like SamplingAccuracy); the size
// guard additionally self-skips on Debug/sanitized builds.
// ---------------------------------------------------------------------------

TEST(TraceV2S8, DifferentialAgainstEngineOnPaperWorkloads) {
  for (const char* name : {"bzip2", "parser", "twolf"}) {
    const isa::Program program = workloads::build(name, 8);
    TempFile file(std::string(name) + "_s8");
    TraceMeta meta;
    meta.workload = name;
    meta.scale = 8;
    const isa::InterpResult recorded =
        record_interpreter(program, file.path(), meta);

    // The decoded stream equals the reference interpreter's event stream
    // (the switch engine's sink), record by record.
    TraceReader reader(file.path());
    ASSERT_EQ(reader.record_count(), recorded.executed) << name;
    mem::MainMemory memory;
    isa::load_data_image(program, memory);
    isa::FunctionalEngine engine(program, memory, isa::EngineKind::kSwitch);
    uint64_t live = 0;
    uint64_t first_diff = UINT64_MAX;
    engine.set_sink([&](uint64_t, const isa::StepEvent* ev, size_t n) {
      for (size_t i = 0; i < n; ++i, ++live) {
        TraceRecord stored;
        if (first_diff == UINT64_MAX &&
            (!reader.next(stored) || !(stored == to_trace_record(ev[i])))) {
          first_diff = live;
        }
      }
    });
    engine.run();
    EXPECT_EQ(first_diff, UINT64_MAX) << name << ": first differing record";
    EXPECT_EQ(live, reader.record_count()) << name;

    // The header's final state equals the interpreter's.
    const isa::InterpResult ref = isa::run_program(program);
    EXPECT_EQ(reader.final_digest(), ref.mem_digest) << name;
    EXPECT_EQ(reader.final_regs(), ref.regs) << name;

    // BBVs bit-identical to a live pass (the trace path decodes blocks in
    // parallel).
    TraceReader bbv_reader(file.path());
    const BbvSet from_trace = bbv_from_trace(bbv_reader, 10000);
    const BbvSet from_engine = bbv_from_program(program, 10000);
    EXPECT_EQ(from_trace.leaders, from_engine.leaders) << name;
    EXPECT_EQ(from_trace.vectors, from_engine.vectors) << name;

    // Warm-state blobs bit-identical to the engine pass.
    const std::vector<core::CoreConfig> configs = {sim::presets::ci(2, 512)};
    const std::vector<uint64_t> targets = {recorded.executed / 3,
                                           (2 * recorded.executed) / 3};
    TraceReader warm_reader(file.path());
    EXPECT_EQ(capture_warm_states_grid(configs, program, warm_reader, targets),
              capture_warm_states_grid(configs, program, targets))
        << name;

    // Merged CFIRSHD2 stats bit-identical between trace-warmed and
    // engine-warmed sharded runs (short measured slices keep the detailed
    // cost tiny).
    IntervalPlan plan =
        plan_intervals(program, 3, 0, 0, WarmMode::kFunctional, 2000);
    std::vector<ConfigBinding> bindings(1);
    bindings[0].config = configs[0];
    bindings[0].name = configs[0].label();
    bindings[0].config_hash = configs[0].digest();
    const MergedGrid traced = merge_shard_grid(
        {run_shard(bindings, program, plan, {0, 2}, 2, 0, file.path()),
         run_shard(bindings, program, plan, {1, 2}, 2, 0, file.path())});
    const MergedGrid engine_warmed =
        merge_shard_grid({run_shard(bindings, program, plan, {0, 2}, 2),
                          run_shard(bindings, program, plan, {1, 2}, 2)});
    EXPECT_EQ(stats_bytes(traced.configs[0].run.aggregate),
              stats_bytes(engine_warmed.configs[0].run.aggregate))
        << name;
    ASSERT_EQ(traced.configs[0].run.intervals.size(),
              engine_warmed.configs[0].run.intervals.size());
    for (size_t i = 0; i < traced.configs[0].run.intervals.size(); ++i) {
      EXPECT_EQ(stats_bytes(traced.configs[0].run.intervals[i].stats),
                stats_bytes(engine_warmed.configs[0].run.intervals[i].stats))
          << name << " interval " << i;
    }
  }
}

TEST(TraceV2S8, SizeRatioGuardOnBzip2) {
  if (!kOptimized || kSanitized) {
    GTEST_SKIP() << "size guard runs on optimized, uninstrumented builds "
                    "(the size is checked in Release CI)";
  }
  // The columnar file must be at most half the retired row-oriented
  // CFIRTRC1 encoding of the same stream on bzip2 s8 (measured ~0.15x;
  // see docs/trace-format.md for the full table). CFIRTRC1 sizes are
  // deterministic, so its last measured size stands in for the writer.
  constexpr size_t kCfirtrc1Bytes = 2'221'379;
  const isa::Program program = workloads::build("bzip2", 8);
  TempFile file("ratio");
  TraceMeta meta;
  meta.workload = "bzip2";
  meta.scale = 8;
  record_interpreter(program, file.path(), meta);
  const size_t size = file_bytes(file.path()).size();
  EXPECT_LE(size * 2, kCfirtrc1Bytes)
      << "CFIRTRC2 " << size << " bytes vs CFIRTRC1 " << kCfirtrc1Bytes
      << " bytes";

  // The per-column accounting trace_tool info prints must add up to the
  // payload actually on disk.
  TraceReader reader(file.path());
  uint64_t payload = 0;
  for (const uint64_t c : reader.column_bytes()) payload += c;
  EXPECT_GT(payload, uint64_t{0});
  EXPECT_LT(payload, size);
}

}  // namespace
}  // namespace cfir::trace
