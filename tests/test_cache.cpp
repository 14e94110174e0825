#include "mem/cache.hpp"
#include "mem/hierarchy.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace cfir::mem {
namespace {

CacheConfig small_cache() {
  // 4 sets x 2 ways x 16-byte lines = 128 bytes.
  return CacheConfig{"test", 128, 2, 16, 1};
}

TEST(Cache, MissThenHit) {
  Cache c(small_cache());
  auto r1 = c.access(0x100, false, 0, 10);
  EXPECT_FALSE(r1.hit);
  EXPECT_EQ(r1.latency, 11u);  // hit latency + fill
  auto r2 = c.access(0x104, false, 20, 10);  // same line
  EXPECT_TRUE(r2.hit);
  EXPECT_EQ(r2.latency, 1u);
  EXPECT_EQ(c.stats().accesses, 2u);
  EXPECT_EQ(c.stats().hits, 1u);
  EXPECT_EQ(c.stats().misses, 1u);
}

TEST(Cache, LruEviction) {
  Cache c(small_cache());
  // Three lines mapping to the same set (set stride = 4 lines * 16B = 64B).
  c.access(0x000, false, 0, 10);
  c.access(0x040, false, 1, 10);
  EXPECT_TRUE(c.probe(0x000));
  c.access(0x000, false, 2, 10);  // touch to make 0x40 the LRU
  c.access(0x080, false, 3, 10);  // evicts 0x40
  EXPECT_TRUE(c.probe(0x000));
  EXPECT_FALSE(c.probe(0x040));
  EXPECT_TRUE(c.probe(0x080));
}

TEST(Cache, WritebackOnDirtyEviction) {
  Cache c(small_cache());
  c.access(0x000, true, 0, 10);   // dirty
  c.access(0x040, false, 1, 10);
  c.access(0x080, false, 2, 10);  // evicts dirty 0x000
  EXPECT_EQ(c.stats().writebacks, 1u);
}

TEST(Cache, MshrMergeShortensLatency) {
  Cache c(small_cache());
  auto r1 = c.access(0x200, false, 0, 20);
  EXPECT_EQ(r1.latency, 21u);
  // The line was installed by the first access; a later access hits. Use a
  // different line in the same fill window to observe the merge path: merge
  // applies to the same line while the fill is outstanding, so force a miss
  // by evicting first. Simplest observable property: merges counter stays 0
  // for hits and the in-flight table bounds latency for repeated misses.
  Cache c2(small_cache());
  c2.access(0x200, false, 0, 20);
  // Same line, still missing in another set? Not possible once installed.
  // Verify the merge bookkeeping directly with an eviction dance:
  c2.access(0x240, false, 1, 20);
  c2.access(0x280, false, 2, 20);  // 0x200 evicted
  auto r3 = c2.access(0x200, false, 5, 20);  // fill from cycle 0 outstanding
  EXPECT_FALSE(r3.hit);
  EXPECT_EQ(c2.stats().mshr_merges, 1u);
  EXPECT_LT(r3.latency, 21u);  // merged into the outstanding fill
}

TEST(Hierarchy, Table1Latencies) {
  CacheHierarchy h;  // Table 1 defaults
  // Cold access: L1 miss + L2 miss + L3 miss + memory.
  const uint32_t cold = h.access_data(0x100000, false, 0);
  EXPECT_EQ(cold, 1u + 6 + 18 + 100);
  // Warm: L1 hit.
  EXPECT_EQ(h.access_data(0x100000, false, 200), 1u);
  // L1 evict far later is hard to force here; probe L2 residency instead.
  EXPECT_TRUE(h.l2().probe(0x100000));
  EXPECT_TRUE(h.l3().probe(0x100000));
}

TEST(Hierarchy, L2HitAfterL1Conflict) {
  HierarchyConfig cfg;
  cfg.l1d = {"L1D", 64, 1, 32, 1};  // 2 sets, direct mapped: easy conflicts
  CacheHierarchy h(cfg);
  h.access_data(0x0, false, 0);
  h.access_data(0x40, false, 200);  // conflicts with 0x0 in L1, fills L2
  const uint32_t r = h.access_data(0x0, false, 400);  // L1 miss, L2 hit
  EXPECT_EQ(r, 1u + 6);
  EXPECT_EQ(h.l2().stats().hits, 1u);
}

TEST(Hierarchy, InstructionPathCountsSeparately) {
  CacheHierarchy h;
  h.access_inst(0x1000, 0);
  h.access_inst(0x1000, 10);
  EXPECT_EQ(h.l1i().stats().accesses, 2u);
  EXPECT_EQ(h.l1i().stats().hits, 1u);
  EXPECT_EQ(h.l1d().stats().accesses, 0u);
}

TEST(Hierarchy, ResetClearsState) {
  CacheHierarchy h;
  h.access_data(0x100, true, 0);
  h.reset();
  EXPECT_EQ(h.l1d().stats().accesses, 0u);
  EXPECT_FALSE(h.l1d().probe(0x100));
}

TEST(Cache, Table1Geometry) {
  // The Table 1 L1D: 64KB, 2-way, 32B lines -> 1024 sets.
  Cache l1d(CacheConfig{"L1D", 64 * 1024, 2, 32, 1});
  EXPECT_EQ(l1d.num_sets(), 1024u);
  Cache l2(CacheConfig{"L2", 256 * 1024, 4, 32, 6});
  EXPECT_EQ(l2.num_sets(), 2048u);
  Cache l3(CacheConfig{"L3", 2 * 1024 * 1024, 4, 64, 18});
  EXPECT_EQ(l3.num_sets(), 8192u);
}

TEST(Cache, UnbuildableGeometryThrows) {
  // Every geometry the set-index math cannot serve is rejected in every
  // build type, before any address is divided by it.
  for (const CacheConfig& bad : {
           CacheConfig{"zero-line", 128, 2, 0, 1},
           CacheConfig{"zero-assoc", 128, 0, 16, 1},
           CacheConfig{"three-sets", 3 * 2 * 16, 2, 16, 1},
           CacheConfig{"no-sets", 16, 2, 16, 1},
           // line_bytes * assoc wraps to 0 in 32 bits.
           CacheConfig{"wraps", 1u << 20, 1u << 16, 1u << 16, 1},
       }) {
    EXPECT_THROW(check_geometry(bad), std::invalid_argument) << bad.name;
    EXPECT_THROW(Cache{bad}, std::invalid_argument) << bad.name;
  }
  HierarchyConfig h;
  h.l1d.line_bytes = 0;
  EXPECT_THROW(CacheHierarchy{h}, std::invalid_argument);
  EXPECT_NO_THROW(check_geometry(small_cache()));
}

}  // namespace
}  // namespace cfir::mem
