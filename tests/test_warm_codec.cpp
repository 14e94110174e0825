// Warm-state blob codec (util/warmable.hpp write_sparse_table /
// read_sparse_table, trace/warming.cpp FunctionalWarmer::serialize_state,
// docs/trace-format.md "Warm-state blob"). The format lists only the
// table entries that differ from their default, so these tests lock:
//  - losslessness: serialize(deserialize(b)) == b for cold, partly warmed
//    and saturated warmers, and a restore clears stale entries;
//  - structural validation: every malformed table (count, index, gap,
//    varint, truncation) is rejected with CorruptFileError before any
//    out-of-range write (the suite runs under ASan+UBSan in CI);
//  - typed rejection of stale WRM1 blobs (VersionError, exit code 4) in
//    their one carrier, the .cfirwarm sidecar;
//  - install_warm_state, the unit-side install path, leaves a Simulator's
//    components exactly as a deserialized warmer holds them and fails
//    with the same typed errors as FunctionalWarmer::deserialize_state;
//  - a deterministic size guard: byte counts, never timing.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdio>
#include <string>
#include <vector>

#include "ci/mechanism.hpp"
#include "sim/presets.hpp"
#include "sim/simulator.hpp"
#include "stats/stats.hpp"
#include "trace/blob.hpp"
#include "trace/errors.hpp"
#include "trace/manifest.hpp"
#include "trace/sampling.hpp"
#include "trace/shard.hpp"
#include "trace/warming.hpp"
#include "util/warmable.hpp"
#include "workloads/workloads.hpp"

namespace cfir::trace {
namespace {

using util::ByteReader;
using util::ByteWriter;

/// Bytes before the first table: magic, policy, warmed, last fetch line.
constexpr size_t kHeaderBytes = 4 + 1 + 8 + 8;
/// Offset of the gshare table's entry count (after its u32 size).
constexpr size_t kGshareCountAt = kHeaderBytes + 4;

size_t varint_len(uint64_t v) {
  ByteWriter w;
  w.varint(v);
  return w.data().size();
}

/// Drives every sparse table of `w` to saturation through the public
/// commit-stream hook: not-taken branches at every gshare index (history
/// stays 0, so pc >> 2 is the index) also fill every MBS way and the L1I;
/// loads from enough distinct pcs fill every stride-predictor way, over
/// an address range twice the L3 so every data-side set is full.
void saturate(FunctionalWarmer& w, const core::CoreConfig& config) {
  TraceRecord rec;
  rec.kind = RecordKind::kBranch;
  rec.taken = false;
  for (uint64_t i = 0; i < config.gshare_entries; ++i) {
    rec.pc = i * 4;
    w.on_record(rec);
  }
  const uint64_t load_pcs = uint64_t{4} * config.stride_sets *
                            config.stride_ways;
  const uint64_t span = 2 * uint64_t{config.memory.l3.size_bytes};
  rec = TraceRecord{};
  rec.kind = RecordKind::kLoad;
  rec.size = 8;
  for (uint64_t a = 0; a < span; a += 32) {
    rec.pc = ((a / 32) % load_pcs) * 4;
    rec.addr = (uint64_t{1} << 32) + a;
    w.on_record(rec);
  }
}

struct TableSizes {
  std::vector<uint64_t> entries;  ///< per sparse table, blob order
  uint64_t dense_bytes = 0;       ///< the retired dense (WRM1) encoding
};

/// Table sizes of a warmer built from `config`, and the size of its dense
/// WRM1 blob at RAS depth 0: every table written in full, fixed-width.
TableSizes table_sizes(const core::CoreConfig& config) {
  TableSizes t;
  const uint64_t gshare = config.gshare_entries;
  const uint64_t mbs = uint64_t{config.mbs_sets} * config.mbs_ways;
  const uint64_t stride = uint64_t{config.stride_sets} * config.stride_ways;
  t.entries = {gshare, mbs, stride};
  t.dense_bytes = kHeaderBytes + (4 + gshare + 8) + (16 + 19 * mbs) + 4 +
                  (16 + 43 * stride);
  for (const mem::CacheConfig* c :
       {&config.memory.l1i, &config.memory.l1d, &config.memory.l2,
        &config.memory.l3}) {
    const uint64_t lines = c->size_bytes / c->line_bytes;
    t.entries.push_back(lines);
    t.dense_bytes += 16 + 18 * lines;
  }
  return t;
}

void expect_same_components(const FunctionalWarmer& a,
                            const FunctionalWarmer& b) {
  EXPECT_EQ(a.warmed(), b.warmed());
  EXPECT_EQ(a.gshare().debug_digest(), b.gshare().debug_digest());
  EXPECT_EQ(a.mbs().debug_digest(), b.mbs().debug_digest());
  EXPECT_EQ(a.ras().debug_digest(), b.ras().debug_digest());
  EXPECT_EQ(a.stride_predictor().debug_digest(),
            b.stride_predictor().debug_digest());
  EXPECT_EQ(a.hierarchy().debug_digest(), b.hierarchy().debug_digest());
}

/// `blob` with the gshare table's entry list replaced by `table` (an
/// encoded count + entries); the rest of the blob is kept verbatim. Only
/// valid on blobs whose gshare table is empty (cold warmers).
std::vector<uint8_t> splice_gshare(const std::vector<uint8_t>& blob,
                                   const ByteWriter& table) {
  EXPECT_EQ(blob[kGshareCountAt], 0) << "gshare table must be empty";
  std::vector<uint8_t> out(blob.begin(), blob.begin() + kGshareCountAt);
  out.insert(out.end(), table.data().begin(), table.data().end());
  out.insert(out.end(), blob.begin() + kGshareCountAt + 1, blob.end());
  return out;
}

// --- The codec over a plain table -----------------------------------------

void put_u64(ByteWriter& o, uint64_t v) { o.u64(v); }
void get_u64(ByteReader& i, uint64_t& v) { v = i.u64(); }

TEST(WarmCodec, SparseTableRoundTripsAndResetsStaleEntries) {
  std::vector<uint64_t> table(300, 0);
  table[0] = 7;
  table[129] = 1;
  table[299] = ~uint64_t{0};
  ByteWriter w;
  util::write_sparse_table(w, table, uint64_t{0}, put_u64);
  // count 3, then gaps 0, 129 (two varint bytes), 170 (two), 8 B each.
  EXPECT_EQ(w.data().size(), 1u + (1 + 8) + (2 + 8) + (2 + 8));

  std::vector<uint64_t> restored(300, 5);  // stale, non-default contents
  ByteReader r(w.data());
  util::read_sparse_table(r, restored, uint64_t{0}, get_u64);
  EXPECT_TRUE(r.done());
  EXPECT_EQ(restored, table);

  const std::vector<uint64_t> cold(300, 0);
  ByteWriter wc;
  util::write_sparse_table(wc, cold, uint64_t{0}, put_u64);
  EXPECT_EQ(wc.data(), std::vector<uint8_t>{0});
  ByteReader rc(wc.data());
  util::read_sparse_table(rc, restored, uint64_t{0}, get_u64);
  EXPECT_EQ(restored, cold);
}

TEST(WarmCodec, VarintRoundTripsAndRejectsNonCanonicalForms) {
  for (const uint64_t v : {uint64_t{0}, uint64_t{1}, uint64_t{127},
                           uint64_t{128}, uint64_t{16383}, uint64_t{16384},
                           uint64_t{1} << 63, ~uint64_t{0}}) {
    ByteWriter w;
    w.varint(v);
    ByteReader r(w.data());
    EXPECT_EQ(r.varint(), v);
    EXPECT_TRUE(r.done());
  }
  const std::vector<std::vector<uint8_t>> bad = {
      {0x80, 0x00},                    // trailing zero group
      {0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02},  // > 64 b
      {0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x81, 0x00},
      {0x80},                          // truncated
  };
  for (const auto& bytes : bad) {
    ByteReader r(bytes);
    EXPECT_THROW((void)r.varint(), std::runtime_error);
  }
}

TEST(WarmCodec, SparseTableRejectsMalformedStructure) {
  const auto encode = [](std::initializer_list<uint64_t> gaps) {
    ByteWriter w;
    w.varint(gaps.size());
    for (const uint64_t g : gaps) {
      w.varint(g);
      w.u64(9);
    }
    return w;
  };
  std::vector<ByteWriter> bad;
  {
    ByteWriter w;  // count > table size
    w.varint(17);
    bad.push_back(w);
  }
  bad.push_back(encode({16}));                // index == size
  bad.push_back(encode({3, 13}));             // index 16 == size
  bad.push_back(encode({~uint64_t{0}}));      // gap that would wrap
  bad.push_back(encode({3, ~uint64_t{0}}));
  bad.push_back(encode({2, 0}));              // non-increasing index
  {
    ByteWriter w;  // a listed entry equal to the default
    w.varint(1);
    w.varint(4);
    w.u64(0);
    bad.push_back(w);
  }
  for (size_t k = 0; k < bad.size(); ++k) {
    std::vector<uint64_t> table(16, 0);
    ByteReader r(bad[k].data());
    EXPECT_THROW(util::read_sparse_table(r, table, uint64_t{0}, get_u64),
                 std::runtime_error)
        << "case " << k;
  }

  // A well-formed table truncated at every byte offset.
  const ByteWriter good = encode({0, 5, 10});
  for (size_t n = 0; n < good.data().size(); ++n) {
    std::vector<uint64_t> table(16, 0);
    ByteReader r(good.data().data(), n);
    EXPECT_THROW(util::read_sparse_table(r, table, uint64_t{0}, get_u64),
                 std::runtime_error)
        << "truncated at " << n;
  }
}

// --- Whole warmer blobs ----------------------------------------------------

TEST(WarmCodec, BlobRoundTripIsByteStableColdPartialAndSaturated) {
  const isa::Program program = workloads::build("twolf", 1);
  const core::CoreConfig config = sim::presets::ci(2, 256);

  FunctionalWarmer cold(config, program);
  FunctionalWarmer partial(config, program);
  partial.advance_to(20000);
  FunctionalWarmer saturated(config, program);
  saturate(saturated, config);

  for (const FunctionalWarmer* w : {&cold, &partial, &saturated}) {
    const std::vector<uint8_t> blob = w->serialize_state();
    FunctionalWarmer restored(config, program);
    restored.deserialize_state(blob);
    expect_same_components(restored, *w);
    EXPECT_EQ(restored.serialize_state(), blob);
  }
}

TEST(WarmCodec, RestoringAColdBlobClearsEveryStaleEntry) {
  const isa::Program program = workloads::build("parser", 1);
  const core::CoreConfig config = sim::presets::vect(2, 256);
  const FunctionalWarmer fresh(config, program);
  const std::vector<uint8_t> cold_blob = fresh.serialize_state();

  FunctionalWarmer warm(config, program);
  warm.advance_to(30000);
  saturate(warm, config);
  ASSERT_NE(warm.serialize_state(), cold_blob);
  warm.deserialize_state(cold_blob);
  expect_same_components(warm, fresh);
  EXPECT_EQ(warm.serialize_state(), cold_blob);
}

TEST(WarmCodec, CorruptBlobStructureThrowsCorruptFileError) {
  const isa::Program program = workloads::build("bzip2", 1);
  const core::CoreConfig config = sim::presets::ci(2, 256);
  const std::vector<uint8_t> cold = FunctionalWarmer(config, program)
                                        .serialize_state();
  const uint64_t n = config.gshare_entries;
  const auto table = [](std::initializer_list<uint64_t> gaps) {
    ByteWriter w;
    w.varint(gaps.size());
    for (const uint64_t g : gaps) {
      w.varint(g);
      w.u8(3);
    }
    return w;
  };
  ByteWriter too_many;
  too_many.varint(n + 1);
  const std::vector<ByteWriter> bad = {too_many, table({n}),
                                       table({n - 1, 1}), table({4, 0})};
  FunctionalWarmer target(config, program);
  // Sanity: a well-formed splice loads.
  EXPECT_NO_THROW(target.deserialize_state(splice_gshare(cold, table({4, 1}))));
  EXPECT_NE(target.gshare().debug_digest(),
            FunctionalWarmer(config, program).gshare().debug_digest());
  for (size_t k = 0; k < bad.size(); ++k) {
    EXPECT_THROW(target.deserialize_state(splice_gshare(cold, bad[k])),
                 CorruptFileError)
        << "case " << k;
  }

  // A partly warmed blob truncated at every byte offset, and one with a
  // trailing byte.
  FunctionalWarmer partial(config, program);
  partial.advance_to(2000);
  const std::vector<uint8_t> blob = partial.serialize_state();
  for (size_t len = 0; len < blob.size(); ++len) {
    const std::vector<uint8_t> cut(
        blob.begin(), blob.begin() + static_cast<std::ptrdiff_t>(len));
    EXPECT_THROW(target.deserialize_state(cut), CorruptFileError)
        << "truncated at " << len << " of " << blob.size();
  }
  std::vector<uint8_t> trailing = blob;
  trailing.push_back(0);
  EXPECT_THROW(target.deserialize_state(trailing), CorruptFileError);
}

TEST(WarmCodec, HeaderFailuresAreTyped) {
  const isa::Program program = workloads::build("gzip", 1);
  const core::CoreConfig config = sim::presets::ci(2, 256);
  FunctionalWarmer w(config, program);
  w.advance_to(1000);
  const std::vector<uint8_t> blob = w.serialize_state();
  ASSERT_EQ(std::string(blob.begin(), blob.begin() + 4), "WRM2");

  FunctionalWarmer target(config, program);
  std::vector<uint8_t> wrm1 = blob;
  wrm1[3] = '1';
  try {
    target.deserialize_state(wrm1);
    FAIL() << "a WRM1 blob loaded";
  } catch (const VersionError& e) {
    EXPECT_NE(std::string(e.what()).find("trace_tool plan"),
              std::string::npos)
        << e.what();
  }
  std::vector<uint8_t> alien = blob;
  alien[0] = 'X';
  EXPECT_THROW(target.deserialize_state(alien), BadMagicError);

  // Well-formed blobs from a differently configured warmer.
  core::CoreConfig small = config;
  small.gshare_entries = 1024;
  EXPECT_THROW(FunctionalWarmer(small, program).deserialize_state(blob),
               ConfigMismatchError);
  EXPECT_THROW(FunctionalWarmer(sim::presets::scal(2, 256), program)
                   .deserialize_state(blob),
               ConfigMismatchError);
}

TEST(WarmInstall, MatchesDeserializedWarmerPerComponentAndRun) {
  // install_warm_state deserializes straight into the unit's Simulator.
  // The reference is the warmer route it replaces: deserialize_state into
  // a standalone warmer, then copy its whole components into the core.
  // Every policy shape: no CI mechanism (scal, wb, ci-window) and a
  // stride predictor to warm (ci, vect).
  const isa::Program program = workloads::build("bzip2", 1);
  for (const core::CoreConfig& config :
       {sim::presets::scal(2, 256), sim::presets::wb(2, 256),
        sim::presets::ci(2, 256), sim::presets::vect(2, 256),
        sim::presets::ci_window(2, 512)}) {
    const std::string label = config.label();
    FunctionalWarmer warmer(config, program);
    warmer.advance_to(20000);
    const std::vector<uint8_t> blob = warmer.serialize_state();
    FunctionalWarmer restored(config, program);
    restored.deserialize_state(blob);

    sim::Simulator direct(config, program);
    install_warm_state(blob, direct);
    sim::Simulator copied(config, program);
    copied.core().gshare() = restored.gshare();
    copied.core().mbs() = restored.mbs();
    copied.core().ras() = restored.ras();
    copied.core().hierarchy() = restored.hierarchy();
    ASSERT_EQ(direct.ci_mechanism() != nullptr,
              copied.ci_mechanism() != nullptr);
    if (copied.ci_mechanism() != nullptr) {
      copied.ci_mechanism()->stride_predictor() = restored.stride_predictor();
      EXPECT_EQ(direct.ci_mechanism()->stride_predictor().debug_digest(),
                restored.stride_predictor().debug_digest())
          << label;
    }

    core::Core& core = direct.core();
    EXPECT_EQ(core.gshare().debug_digest(), restored.gshare().debug_digest())
        << label;
    EXPECT_EQ(core.mbs().debug_digest(), restored.mbs().debug_digest())
        << label;
    EXPECT_EQ(core.ras().debug_digest(), restored.ras().debug_digest())
        << label;
    EXPECT_EQ(core.hierarchy().debug_digest(),
              restored.hierarchy().debug_digest())
        << label;
    EXPECT_NE(core.hierarchy().debug_digest(),
              sim::Simulator(config, program).core().hierarchy().debug_digest())
        << label << ": the blob warmed nothing";

    // Whatever the digests do not see must agree too: the warmed runs are
    // bit-identical.
    ByteWriter a;
    ByteWriter b;
    stats::serialize(direct.run(5000), a);
    stats::serialize(copied.run(5000), b);
    EXPECT_EQ(a.data(), b.data()) << label;
  }
}

TEST(WarmInstall, FailuresAreTyped) {
  const isa::Program program = workloads::build("gzip", 1);
  const core::CoreConfig config = sim::presets::ci(2, 256);
  FunctionalWarmer w(config, program);
  w.advance_to(1000);
  const std::vector<uint8_t> blob = w.serialize_state();
  sim::Simulator target(config, program);
  EXPECT_NO_THROW(install_warm_state(blob, target));

  std::vector<uint8_t> alien = blob;
  alien[0] = 'X';
  EXPECT_THROW(install_warm_state(alien, target), BadMagicError);
  std::vector<uint8_t> wrm1 = blob;
  wrm1[3] = '1';
  EXPECT_THROW(install_warm_state(wrm1, target), VersionError);

  // Policy and geometry mismatches.
  sim::Simulator scal(sim::presets::scal(2, 256), program);
  EXPECT_THROW(install_warm_state(blob, scal), ConfigMismatchError);
  core::CoreConfig small = config;
  small.gshare_entries = 1024;
  sim::Simulator small_sim(small, program);
  EXPECT_THROW(install_warm_state(blob, small_sim), ConfigMismatchError);
  core::CoreConfig small_stride = config;
  small_stride.stride_sets = 64;
  sim::Simulator stride_sim(small_stride, program);
  EXPECT_THROW(install_warm_state(blob, stride_sim), ConfigMismatchError);

  // Truncated at every byte offset, and one trailing byte.
  for (size_t len = 0; len < blob.size(); ++len) {
    const std::vector<uint8_t> cut(
        blob.begin(), blob.begin() + static_cast<std::ptrdiff_t>(len));
    EXPECT_THROW(install_warm_state(cut, target), CorruptFileError)
        << "truncated at " << len << " of " << blob.size();
  }
  std::vector<uint8_t> trailing = blob;
  trailing.push_back(0);
  EXPECT_THROW(install_warm_state(trailing, target), CorruptFileError);
}

/// A manifest path in the test temp dir; every artifact the manifest in
/// `written` references is removed again on scope exit.
class TempPlanDir {
 public:
  explicit TempPlanDir(const std::string& tag)
      : path_(::testing::TempDir() + "cfir_codec_" + tag + ".cfirman") {}
  ~TempPlanDir() {
    std::remove(path_.c_str());
    for (const ShardManifest::IntervalRef& iv : written.intervals) {
      std::remove(file(iv.checkpoint_file).c_str());
      for (const std::string& wf : iv.warm_files) {
        if (!wf.empty()) std::remove(file(wf).c_str());
      }
    }
  }
  [[nodiscard]] std::string file(const std::string& name) const {
    return path_.substr(0, path_.find_last_of('/') + 1) + name;
  }
  [[nodiscard]] const std::string& path() const { return path_; }
  ShardManifest written;  ///< what write_manifest returned, for cleanup

 private:
  std::string path_;
};

std::vector<uint8_t> with_magic(std::vector<uint8_t> blob, char version) {
  blob[3] = static_cast<uint8_t>(version);
  return blob;
}

TEST(WarmCodec, StaleWrm1SidecarIsAVersionError) {
  const isa::Program program = workloads::build("bzip2", 1);
  const IntervalPlan plan =
      plan_intervals(program, 2, 20000, 0, WarmMode::kFunctional, 2000);
  const std::vector<ConfigBinding> bindings =
      bind_configs(plan, {{"ci2p", sim::presets::ci(2, 256)}}, program);
  TempPlanDir dir("sidecar");
  dir.written = write_manifest(plan, bindings, "bzip2", 1, dir.path());
  const ShardManifest manifest = ShardManifest::load(dir.path());
  const IntervalPlan reloaded = plan_from_manifest(manifest, dir.path());
  const std::string sidecar = dir.file(manifest.intervals[1].warm_files[0]);
  const std::vector<uint8_t> good = bindings[0].warm[1];

  // CRC-valid sidecars whose payload is a stale or broken blob.
  write_blob_file(sidecar, with_magic(good, '1'));
  EXPECT_THROW((void)run_shard(bindings_from_manifest(manifest, dir.path()),
                               program, reloaded),
               VersionError);
  std::vector<uint8_t> cut(good.begin(), good.end() - 1);
  write_blob_file(sidecar, cut);
  EXPECT_THROW((void)run_shard(bindings_from_manifest(manifest, dir.path()),
                               program, reloaded),
               CorruptFileError);
  write_blob_file(sidecar, good);
  EXPECT_NO_THROW((void)run_shard(
      bindings_from_manifest(manifest, dir.path()), program, reloaded));
}

// --- Deterministic size guard (byte counts, not timing) --------------------

TEST(WarmBlobSize, SaturatedBlobStaysWithinDenseBound) {
  // Worst case for a sparse format: every entry of every table differs
  // from its default. It may cost at most 1 B per entry (the gap) plus
  // 8 B per table (the count) over the retired dense encoding.
  const isa::Program program = workloads::build("bzip2", 1);
  const core::CoreConfig config = sim::presets::ci(2, 256);
  FunctionalWarmer w(config, program);
  saturate(w, config);
  const TableSizes t = table_sizes(config);
  uint64_t entries = 0;
  uint64_t counts = 0;
  for (const uint64_t n : t.entries) {
    entries += n;
    counts += varint_len(n);
  }
  const size_t size = w.serialize_state().size();
  EXPECT_EQ(size, t.dense_bytes + counts + entries)
      << "some table entry was left at its default";
  EXPECT_LE(size, t.dense_bytes + entries + 8 * t.entries.size());
}

TEST(WarmBlobSize, FinalBlobsOfS8ProgramsFitIn64K) {
  // At most ~1.6k cache lines are live at any boundary of these programs;
  // the dense format spent 907 KB on every blob regardless.
  const core::CoreConfig config = sim::presets::ci(2, 256);
  for (const char* wl : {"bzip2", "parser", "twolf"}) {
    const isa::Program program = workloads::build(wl, 8);
    FunctionalWarmer w(config, program);
    w.advance_to(UINT64_MAX);
    const size_t size = w.serialize_state().size();
    RecordProperty(std::string(wl) + "_bytes", std::to_string(size));
    EXPECT_LE(size, 64u * 1024) << wl;
  }
}

}  // namespace
}  // namespace cfir::trace
