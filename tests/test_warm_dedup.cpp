// Warm-blob sharing across a config grid (trace/warming.cpp
// capture_warm_states_grid, reached through trace/sampling.cpp
// bind_configs, + trace/manifest.cpp write_manifest): functional warm
// state depends only on the policy and the geometry
// core::CoreConfig::warm_geometry_digest() covers (predictor and cache
// shapes), so a ports/regs/width sweep must train each distinct geometry
// ONCE, give every point of a group byte-identical blobs, and collapse the
// group to a single warm sidecar file per interval on disk. The sharing is
// an optimization, not a semantic change: the grid still runs and merges
// bit-identically per column (locked by tests/test_shard.cpp); this file
// locks the sharing itself so a grouping regression cannot silently
// re-inflate warming cost O(configs)-fold.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "sim/presets.hpp"
#include "trace/manifest.hpp"
#include "trace/sampling.hpp"
#include "workloads/workloads.hpp"

namespace cfir::trace {
namespace {

class TempManifest {
 public:
  TempManifest(const IntervalPlan& plan,
               const std::vector<ConfigBinding>& bindings,
               const std::string& workload, uint32_t scale,
               const std::string& tag)
      : path_(::testing::TempDir() + "cfir_dedup_" + tag + ".cfirman"),
        manifest_(write_manifest(plan, bindings, workload, scale, path_)) {}
  ~TempManifest() {
    std::remove(path_.c_str());
    const std::string dir = path_.substr(0, path_.find_last_of('/') + 1);
    for (const auto& iv : manifest_.intervals) {
      std::remove((dir + iv.checkpoint_file).c_str());
      for (const std::string& wf : iv.warm_files) {
        if (!wf.empty()) std::remove((dir + wf).c_str());
      }
    }
  }
  [[nodiscard]] const ShardManifest& manifest() const { return manifest_; }

 private:
  std::string path_;
  ShardManifest manifest_;
};

/// A 4-point sweep with exactly two warm geometries: three points vary
/// only warm-irrelevant knobs (ports, registers, issue width) around the
/// scal preset, one changes cache geometry for real.
[[nodiscard]] std::vector<std::pair<std::string, core::CoreConfig>>
sweep_points() {
  core::CoreConfig wide = sim::presets::scal(4, 1024);
  wide.issue_width = 16;
  core::CoreConfig big_cache = sim::presets::scal(1, 256);
  big_cache.memory.l1d.size_bytes *= 2;
  return {
      {"scal1p", sim::presets::scal(1, 256)},
      {"scal4p", sim::presets::scal(4, 256)},
      {"wide", wide},
      {"bigcache", big_cache},
  };
}

TEST(WarmDedup, BindConfigsSharesBlobsAcrossEqualGeometry) {
  const auto points = sweep_points();
  const uint64_t geometry = points[0].second.warm_geometry_digest();
  ASSERT_EQ(geometry, points[1].second.warm_geometry_digest());
  ASSERT_EQ(geometry, points[2].second.warm_geometry_digest());
  ASSERT_NE(geometry, points[3].second.warm_geometry_digest());

  const isa::Program program = workloads::build("bzip2", 4);
  const IntervalPlan plan =
      plan_intervals(program, 2, 60000, 0, WarmMode::kFunctional);
  obs::Counter& trainers =
      obs::Registry::instance().counter("warming.trainers");
  const uint64_t trainers_before = trainers.value();
  const std::vector<ConfigBinding> bindings =
      bind_configs(plan, points, program);
  // One commit-path trainer per distinct geometry, for the whole grid.
  EXPECT_EQ(trainers.value() - trainers_before, 2u);
  ASSERT_EQ(bindings.size(), points.size());
  for (const ConfigBinding& b : bindings) {
    ASSERT_EQ(b.warm.size(), plan.checkpoints.size()) << b.name;
    for (const auto& blob : b.warm) EXPECT_FALSE(blob.empty()) << b.name;
  }
  // Geometry-equal points carry byte-identical blobs; the distinct
  // geometry trained something else.
  EXPECT_EQ(bindings[0].warm, bindings[1].warm);
  EXPECT_EQ(bindings[0].warm, bindings[2].warm);
  EXPECT_NE(bindings[0].warm, bindings[3].warm);
}

TEST(WarmDedup, ManifestCollapsesSharedBlobsToOneSidecar) {
  const auto points = sweep_points();
  const isa::Program program = workloads::build("parser", 4);
  const IntervalPlan plan =
      plan_intervals(program, 2, 60000, 0, WarmMode::kFunctional);
  const std::vector<ConfigBinding> bindings =
      bind_configs(plan, points, program);
  TempManifest man(plan, bindings, "parser", 4, "collapse");

  for (const auto& iv : man.manifest().intervals) {
    ASSERT_EQ(iv.warm_files.size(), points.size());
    for (const std::string& wf : iv.warm_files) EXPECT_FALSE(wf.empty());
    // One sidecar for the three geometry-equal columns, a different one
    // for the distinct geometry.
    EXPECT_EQ(iv.warm_files[0], iv.warm_files[1]);
    EXPECT_EQ(iv.warm_files[0], iv.warm_files[2]);
    EXPECT_NE(iv.warm_files[0], iv.warm_files[3]);
  }
}

}  // namespace
}  // namespace cfir::trace
