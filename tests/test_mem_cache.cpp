// Unit tests for the cache and memory-hierarchy substrate.
#include <gtest/gtest.h>
#include "sanitizer_support.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <random>
#include <unordered_map>
#include <vector>

#include "mem/cache.h"
#include "mem/memory_hierarchy.h"
#include "platforms/platforms.h"
#include "sim/vpu.h"

namespace {

using vecfd::mem::Cache;
using vecfd::mem::CacheConfig;
using vecfd::mem::HierarchyConfig;
using vecfd::mem::MemoryHierarchy;
using vecfd::mem::RangeAccess;

CacheConfig small_cache() {
  return {.size_bytes = 1024, .line_bytes = 64, .associativity = 2,
          .name = "t"};
}

TEST(Cache, ColdMissThenHit) {
  Cache c(small_cache());
  EXPECT_FALSE(c.access(0x1000));
  EXPECT_TRUE(c.access(0x1000));
  EXPECT_TRUE(c.access(0x103F));  // same 64B line
  EXPECT_FALSE(c.access(0x1040)); // next line
  EXPECT_EQ(c.misses(), 2u);
  EXPECT_EQ(c.accesses() - c.misses(), 2u);
}

TEST(Cache, GeometryDerivedSets) {
  Cache c(small_cache());
  // 1024 / (64 * 2) = 8 sets
  EXPECT_EQ(c.config().num_sets(), 8u);
}

// The cache XOR-folds upper line bits into the set index; with 8 sets,
// lines 0, 9 and 18 all fold to set 0 (l ^ (l >> 3) ≡ 0 mod 8).
TEST(Cache, LruEvictionWithinSet) {
  Cache c(small_cache());  // 8 sets, 2 ways
  const std::uintptr_t a = 0 * 64;
  const std::uintptr_t b = 9 * 64;
  const std::uintptr_t d = 18 * 64;
  EXPECT_FALSE(c.access(a));
  EXPECT_FALSE(c.access(b));
  EXPECT_TRUE(c.access(a));   // a is now MRU
  EXPECT_FALSE(c.access(d));  // evicts b (LRU)
  EXPECT_TRUE(c.access(a));
  EXPECT_FALSE(c.access(b));  // b was evicted
}

TEST(Cache, PrefersInvalidWayOverEviction) {
  Cache c(small_cache());
  EXPECT_FALSE(c.access(0x0));
  c.flush();
  EXPECT_FALSE(c.access(0 * 64));  // flushed: nothing is resident
  EXPECT_FALSE(c.access(9 * 64));  // same folded set as line 0
  // both lines coexist in the 2-way set
  EXPECT_TRUE(c.access(0 * 64));
  EXPECT_TRUE(c.access(9 * 64));
  EXPECT_EQ(c.misses(), 3u);
  EXPECT_EQ(c.accesses() - c.misses(), 2u);
}

TEST(Cache, ZeroCapacityAlwaysMisses) {
  Cache c({.size_bytes = 0, .line_bytes = 64, .associativity = 0,
           .name = "null"});
  for (int i = 0; i < 4; ++i) EXPECT_FALSE(c.access(0x40));
  EXPECT_EQ(c.misses(), 4u);
}

TEST(Cache, RejectsNonPowerOfTwoLine) {
  EXPECT_THROW(Cache({.size_bytes = 1024, .line_bytes = 48,
                      .associativity = 2, .name = "bad"}),
               std::invalid_argument);
}

TEST(Cache, RejectsZeroAssociativityWithCapacity) {
  EXPECT_THROW(Cache({.size_bytes = 1024, .line_bytes = 64,
                      .associativity = 0, .name = "bad"}),
               std::invalid_argument);
}

TEST(Cache, RejectsCapacitySmallerThanOneSet) {
  EXPECT_THROW(Cache({.size_bytes = 64, .line_bytes = 64,
                      .associativity = 4, .name = "bad"}),
               std::invalid_argument);
}

TEST(Cache, FlushPreservesCounters) {
  Cache c(small_cache());
  c.access(0x0);
  c.access(0x0);
  c.flush();
  EXPECT_EQ(c.accesses() - c.misses(), 1u);
  EXPECT_EQ(c.misses(), 1u);
  EXPECT_FALSE(c.access(0x0));  // cold again after flush
}

// ---- hierarchy ----------------------------------------------------------

HierarchyConfig small_hier() {
  HierarchyConfig h;
  h.l1 = {.size_bytes = 1024, .line_bytes = 64, .associativity = 2,
          .name = "L1"};
  h.l2 = {.size_bytes = 8192, .line_bytes = 64, .associativity = 4,
          .name = "L2"};
  h.l1_latency = 0.0;
  h.l2_latency = 10.0;
  h.mem_latency = 100.0;
  return h;
}

TEST(MemoryHierarchy, LatencyAttributionPerLevel) {
  MemoryHierarchy mh(small_hier());
  auto r1 = mh.access(0x1000);
  EXPECT_EQ(r1.level, 3);  // cold: memory
  EXPECT_DOUBLE_EQ(r1.penalty, 110.0);
  auto r2 = mh.access(0x1000);
  EXPECT_EQ(r2.level, 1);  // L1 hit
  EXPECT_DOUBLE_EQ(r2.penalty, 0.0);
}

TEST(MemoryHierarchy, L2CatchesL1Evictions) {
  MemoryHierarchy mh(small_hier());
  // The hierarchy renames host lines in first-touch order, so touching 19
  // distinct lines in ascending order populates canonical lines 0..18.
  // Canonical lines 0, 9, 18 share an L1 set under the folded index (8
  // sets, 2 ways), so line 18 evicts line 0 from L1 — but not from L2.
  for (std::uintptr_t l = 0; l <= 18; ++l) mh.access(l * 64);
  auto r = mh.access(0 * 64);
  EXPECT_EQ(r.level, 2);
  EXPECT_DOUBLE_EQ(r.penalty, 10.0);
}

TEST(MemoryHierarchy, CanonicalizationErasesAllocatorPlacement) {
  // Two access sequences that differ only in absolute placement must
  // produce identical hit/miss behaviour.
  MemoryHierarchy a(small_hier());
  MemoryHierarchy b(small_hier());
  const std::uintptr_t offsets[] = {0, 64, 4096, 64, 1 << 20, 0};
  for (std::uintptr_t off : offsets) (void)a.access(0x10000 + off);
  for (std::uintptr_t off : offsets) (void)b.access(0x7fff0000 + off);
  EXPECT_EQ(a.l1_misses(), b.l1_misses());
  EXPECT_EQ(a.l2_misses(), b.l2_misses());
  EXPECT_EQ(a.l1_accesses(), b.l1_accesses());
}

TEST(MemoryHierarchy, GlobalAllocationsAreLineAligned) {
  VECFD_SKIP_UNDER_ASAN();
  // mem/aligned_new.cpp pins every heap allocation to the largest modelled
  // line size (128 bytes, SX-Aurora); the determinism story depends on it,
  // so fail loudly if the replacement operator new was not linked in.
  for (std::size_t n : {1ul, 8ul, 100ul, 4097ul}) {
    std::vector<double> v(n, 0.0);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(v.data()) % 128, 0u) << n;
  }
}

TEST(MemoryHierarchy, MismatchedLineSizesAreRejected) {
  HierarchyConfig h = small_hier();
  h.l2.line_bytes = 128;
  EXPECT_THROW(MemoryHierarchy{h}, std::invalid_argument);
}

TEST(MemoryHierarchy, TouchRangeCountsLines) {
  MemoryHierarchy mh(small_hier());
  // 129 bytes starting inside a line → 3 lines
  const RangeAccess r = mh.touch_range(0x100 + 32, 129);
  EXPECT_EQ(r.lines, 3u);
  EXPECT_EQ(r.l1_misses, 3u);
  EXPECT_EQ(r.l2_misses, 3u);
  EXPECT_DOUBLE_EQ(r.penalty, 3 * 110.0);
  EXPECT_EQ(mh.l1_accesses(), 3u);
  // the same lines again: all L1 hits, no penalty
  const RangeAccess again = mh.touch_range(0x100 + 32, 129);
  EXPECT_EQ(again.lines, 3u);
  EXPECT_EQ(again.l1_misses, 0u);
  EXPECT_DOUBLE_EQ(again.penalty, 0.0);
}

TEST(MemoryHierarchy, TouchRangeZeroBytesIsFree) {
  MemoryHierarchy mh(small_hier());
  EXPECT_DOUBLE_EQ(mh.touch_range(0x100, 0).penalty, 0.0);
  EXPECT_EQ(mh.l1_accesses(), 0u);
}

TEST(MemoryHierarchy, StreamLargerThanL1StaysL2Resident) {
  MemoryHierarchy mh(small_hier());
  // stream 4 KB (64 lines): larger than L1 (1 KB), fits L2 (8 KB)
  for (int pass = 0; pass < 2; ++pass) {
    mh.touch_range(0x0, 4096);
  }
  // second pass must have been served from L2, not memory
  EXPECT_EQ(mh.l2_misses(), 64u);
  EXPECT_GT(mh.l1_misses(), 64u);  // first pass + second-pass L1 misses
}

// ---- differential check against the reference model --------------------
//
// The hierarchy's host-side structures (flat line table, same-line fast
// path, shift-and-mask set index, census stamps) must not move a single
// modelled number.  The reference below is the straightforward model they
// replace: a hash map for first-touch renaming, a full way scan with a
// valid flag, division for the set index and sort/unique for the gather
// census.  Seeded synthetic traces run through both; the addresses are
// synthetic, so these checks hold under every sanitizer.

class ReferenceCache {
 public:
  explicit ReferenceCache(const CacheConfig& cfg)
      : cfg_(cfg), num_sets_(cfg.num_sets()),
        ways_(num_sets_ * cfg.associativity) {}

  bool access(std::uintptr_t addr) {
    if (num_sets_ == 0) return false;
    const std::uintptr_t line = addr >> std::countr_zero(cfg_.line_bytes);
    const std::size_t set = (line ^ (line / num_sets_)) % num_sets_;
    Way* base = &ways_[set * cfg_.associativity];
    ++tick_;
    Way* victim = base;
    for (unsigned w = 0; w < cfg_.associativity; ++w) {
      Way& way = base[w];
      if (way.valid && way.tag == line) {
        way.stamp = tick_;
        return true;
      }
      if (!way.valid) {
        victim = &way;
      } else if (victim->valid && way.stamp < victim->stamp) {
        victim = &way;
      }
    }
    *victim = {line, tick_, true};
    return false;
  }

  void flush() {
    for (Way& w : ways_) w.valid = false;
  }

 private:
  struct Way {
    std::uintptr_t tag = 0;
    std::uint64_t stamp = 0;
    bool valid = false;
  };
  CacheConfig cfg_;
  std::size_t num_sets_;
  std::vector<Way> ways_;
  std::uint64_t tick_ = 0;
};

class ReferenceHierarchy {
 public:
  explicit ReferenceHierarchy(const HierarchyConfig& cfg)
      : cfg_(cfg), l1_(cfg.l1), l2_(cfg.l2), line_bytes_(cfg.l1.line_bytes) {}

  vecfd::mem::AccessResult access(std::uintptr_t addr) {
    const std::uintptr_t line = addr & ~(line_bytes_ - 1);
    const auto [it, inserted] = map_.try_emplace(line, next_ * line_bytes_);
    if (inserted) ++next_;
    const std::uintptr_t canon = it->second | (addr & (line_bytes_ - 1));
    ++accesses;
    if (l1_.access(canon)) return {1, cfg_.l1_latency};
    ++l1_misses;
    if (l2_.access(canon)) return {2, cfg_.l1_latency + cfg_.l2_latency};
    ++l2_misses;
    return {3, cfg_.l1_latency + cfg_.l2_latency + cfg_.mem_latency};
  }

  RangeAccess touch_range(std::uintptr_t addr, std::size_t bytes) {
    RangeAccess r;
    if (bytes == 0) return r;
    const std::uintptr_t first = addr & ~(line_bytes_ - 1);
    const std::uintptr_t last = (addr + bytes - 1) & ~(line_bytes_ - 1);
    for (std::uintptr_t a = first; a <= last; a += line_bytes_) {
      const auto hit = access(a);
      r.penalty += hit.penalty;
      ++r.lines;
      r.l1_misses += hit.level > 1 ? 1 : 0;
      r.l2_misses += hit.level > 2 ? 1 : 0;
    }
    return r;
  }

  void flush() {
    l1_.flush();
    l2_.flush();
    map_.clear();
    next_ = 0;
  }

  std::uint64_t accesses = 0;
  std::uint64_t l1_misses = 0;
  std::uint64_t l2_misses = 0;

 private:
  HierarchyConfig cfg_;
  ReferenceCache l1_;
  ReferenceCache l2_;
  std::uintptr_t line_bytes_;
  std::unordered_map<std::uintptr_t, std::uintptr_t> map_;
  std::uintptr_t next_ = 0;
};

/// Replays one seeded trace through both models, comparing every access.
void replay_against_reference(const HierarchyConfig& cfg, std::uint64_t seed) {
  MemoryHierarchy mh(cfg);
  ReferenceHierarchy ref(cfg);
  std::mt19937_64 rng(seed);
  const std::uintptr_t region = std::uintptr_t{1} << 24;  // 16 MiB
  std::uintptr_t addr = 0x10000;
  for (int op = 0; op < 60000; ++op) {
    const unsigned kind = rng() % 100;
    if (kind < 30) {
      // repeat: the same address or another byte of the same line
      addr = (addr & ~std::uintptr_t{7}) + 8 * (rng() % 2);
    } else if (kind < 55) {
      addr += 8 * (rng() % 64);  // short forward stride
    } else if (kind < 70) {
      addr = 0x10000 + (rng() % 4096) * 64;  // a hot 256 KiB window
    } else if (kind < 80) {
      addr = rng() % region;  // large jump
    } else if (kind < 99) {
      // a unit range, often crossing a 4 KiB page boundary
      const std::uintptr_t start =
          (rng() % 2) ? ((addr | 4095) + 1) - 8 * (rng() % 40) : addr;
      const std::size_t bytes = rng() % 1200;
      const RangeAccess got = mh.touch_range(start, bytes);
      const RangeAccess want = ref.touch_range(start, bytes);
      ASSERT_EQ(got.lines, want.lines) << "op " << op;
      ASSERT_EQ(got.l1_misses, want.l1_misses) << "op " << op;
      ASSERT_EQ(got.l2_misses, want.l2_misses) << "op " << op;
      ASSERT_EQ(got.penalty, want.penalty) << "op " << op;
      addr = start + bytes;
      continue;
    } else {
      mh.flush();
      ref.flush();
      continue;
    }
    const auto got = mh.access(addr);
    const auto want = ref.access(addr);
    ASSERT_EQ(got.level, want.level) << "op " << op << " addr " << addr;
    ASSERT_EQ(got.penalty, want.penalty) << "op " << op;
  }
  EXPECT_EQ(mh.l1_accesses(), ref.accesses);
  EXPECT_EQ(mh.l1_misses(), ref.l1_misses);
  EXPECT_EQ(mh.l2_misses(), ref.l2_misses);
  EXPECT_EQ(mh.l1().accesses(), ref.accesses);
  EXPECT_EQ(mh.l2().accesses(), ref.l1_misses);
}

struct Geometry {
  const char* name;
  HierarchyConfig cfg;
};

std::vector<Geometry> differential_geometries() {
  std::vector<Geometry> g{
      {"riscv-vec", vecfd::platforms::riscv_vec().memory},
      {"sx-aurora", vecfd::platforms::sx_aurora().memory},
      {"mn4-avx512", vecfd::platforms::mn4_avx512().memory},
      {"small", small_hier()},
  };
  // 96 KiB and 768 KiB, 8-way, 64 B lines: 192 and 1536 sets, not powers
  // of two.
  HierarchyConfig odd = small_hier();
  odd.l1 = {.size_bytes = 96 * 1024, .line_bytes = 64, .associativity = 8,
            .name = "L1"};
  odd.l2 = {.size_bytes = 768 * 1024, .line_bytes = 64, .associativity = 8,
            .name = "L2"};
  EXPECT_FALSE(std::has_single_bit(odd.l1.num_sets()));
  EXPECT_FALSE(std::has_single_bit(odd.l2.num_sets()));
  g.push_back({"non-pow2-sets", odd});
  HierarchyConfig none = small_hier();
  none.l1 = {.size_bytes = 0, .line_bytes = 64, .associativity = 0,
             .name = "L1"};
  g.push_back({"capacity-less-l1", none});
  return g;
}

TEST(MemoryHierarchyDifferential, MatchesReferenceOnSeededTraces) {
  for (const Geometry& g : differential_geometries()) {
    for (std::uint64_t seed : {1u, 2u, 3u}) {
      SCOPED_TRACE(std::string(g.name) + " seed " + std::to_string(seed));
      replay_against_reference(g.cfg, seed);
    }
  }
}

TEST(MemoryHierarchy, CensusCountsDistinctLinesSinceItBegan) {
  MemoryHierarchy mh(small_hier());
  mh.access(0x40);
  mh.begin_census();
  EXPECT_EQ(mh.census_lines(), 0u);
  // 0x40 was the last line before the census: it is counted again.
  for (std::uintptr_t a : {0x40, 0x48, 0x1000, 0x40, 0x1008, 0x2000}) {
    mh.access(a);
  }
  EXPECT_EQ(mh.census_lines(), 3u);
  mh.touch_range(0x1000, 256);  // 0x1000 again plus three new lines
  EXPECT_EQ(mh.census_lines(), 6u);
  mh.begin_census();
  mh.access(0x2000);
  EXPECT_EQ(mh.census_lines(), 1u);
}

// gather_lines_touched is the sort/unique count of the host lines the real
// (non-pad) lanes read, over seeded index vectors with repeats and pads.
TEST(VpuGatherCensus, MatchesSortUniqueOfLaneLines) {
  for (const auto& machine :
       {vecfd::platforms::riscv_vec(), vecfd::platforms::sx_aurora()}) {
    SCOPED_TRACE(machine.name);
    vecfd::sim::Vpu v(machine);
    const auto line_bytes =
        static_cast<std::uintptr_t>(machine.memory.l1.line_bytes);
    std::vector<double> table(4096);
    for (std::size_t i = 0; i < table.size(); ++i) table[i] = double(i);
    std::mt19937_64 rng(7);
    std::uint64_t expected_total = 0;
    double last_idx = 0.0;
    for (int g = 0; g < 300; ++g) {
      const int n = 1 + static_cast<int>(rng() % machine.vlmax);
      v.set_vl(n);
      vecfd::sim::Vec idx(n);
      for (int i = 0; i < n; ++i) {
        const unsigned kind = rng() % 10;
        if (kind == 0) {
          idx[i] = -1.0;  // pad lane
        } else if (kind < 4 && i > 0) {
          idx[i] = idx[i - 1] < 0 ? 0.0 : idx[i - 1];  // repeat
        } else if (kind < 6) {
          idx[i] = double(rng() % 64);  // a few hot lines
        } else {
          idx[i] = double(rng() % table.size());
        }
      }
      if (g % 3 == 1) {
        // The first lane repeats the previous gather's last real line: the
        // census must still count it for this gather.
        idx[0] = last_idx;
      }
      std::vector<std::uintptr_t> lines;
      for (int i = 0; i < n; ++i) {
        if (idx[i] < 0) continue;
        const auto a = reinterpret_cast<std::uintptr_t>(
            table.data() + static_cast<std::ptrdiff_t>(idx[i]));
        lines.push_back(a & ~(line_bytes - 1));
        last_idx = idx[i];
      }
      std::sort(lines.begin(), lines.end());
      const auto distinct = static_cast<std::uint64_t>(
          std::unique(lines.begin(), lines.end()) - lines.begin());
      const std::uint64_t before = v.counters().gather_lines_touched;
      const vecfd::sim::Vec got = v.vgather(table.data(), idx);
      ASSERT_EQ(v.counters().gather_lines_touched - before, distinct)
          << "gather " << g;
      expected_total += distinct;
      for (int i = 0; i < n; ++i) {
        ASSERT_EQ(got[i], idx[i] < 0 ? 0.0 : table[std::size_t(idx[i])]);
      }
    }
    EXPECT_EQ(v.counters().gather_lines_touched, expected_total);
  }
}

}  // namespace
