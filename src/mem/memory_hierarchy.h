// vecfd::mem — two-level cache hierarchy with latency attribution.
#pragma once

#include <cstdint>
#include <unordered_map>

#include "mem/cache.h"

namespace vecfd::mem {

/// Latency parameters and per-level geometry of the modelled hierarchy.
/// Defaults approximate the RISC-V VEC FPGA prototype of the paper (§2.1.3:
/// 1 MB L2, DDR4 main memory; L1 geometry is not published — see DESIGN.md).
struct HierarchyConfig {
  CacheConfig l1{.size_bytes = 64 * 1024,
                 .line_bytes = 64,
                 .associativity = 8,
                 .name = "L1D"};
  CacheConfig l2{.size_bytes = 1024 * 1024,
                 .line_bytes = 64,
                 .associativity = 16,
                 .name = "L2"};
  double l1_latency = 0.0;   ///< cycles beyond the pipelined base cost
  double l2_latency = 14.0;  ///< extra cycles when served from L2
  double mem_latency = 80.0; ///< extra cycles when served from DRAM
};

/// Which level served an access, plus the extra (beyond-L1) cycle cost.
struct AccessResult {
  int level = 1;        ///< 1 = L1 hit, 2 = L2 hit, 3 = memory
  double penalty = 0.0; ///< extra cycles attributable to this access
};

/// What one touch_range() call cost: the summed penalty and, per level,
/// how many of its lines went past that level.
struct RangeAccess {
  double penalty = 0.0;         ///< summed extra cycles of the lines
  std::uint64_t lines = 0;      ///< lines touched (L1 accesses)
  std::uint64_t l1_misses = 0;  ///< lines not served by L1
  std::uint64_t l2_misses = 0;  ///< lines served by memory

  RangeAccess& operator+=(const RangeAccess& o) {
    penalty += o.penalty;
    lines += o.lines;
    l1_misses += o.l1_misses;
    l2_misses += o.l2_misses;
    return *this;
  }
};

/// Inclusive two-level data-cache hierarchy.
///
/// Each `access()` touches one cache line; vector memory instructions call
/// `touch_range()` / repeated `access()` per element depending on their
/// access pattern (the caller — vecfd::sim — decides, because the pattern is
/// an instruction property).
///
/// Addresses are canonicalized before they reach the caches: each host
/// cache line is renamed, in first-touch order, onto a dense simulated
/// line space with in-line offsets preserved.  Host virtual addresses only
/// identify a line — where the allocator placed a buffer (ASLR, heap
/// history, per-thread arenas) cannot influence hit/miss behaviour, so a
/// measurement is a pure function of its access sequence.  Together with
/// the line-aligned global allocator (mem/aligned_new.cpp) this makes
/// sweeps reproducible run-to-run and lets the parallel sweep engine
/// promise byte-identical results to the serial path.
class MemoryHierarchy {
 public:
  explicit MemoryHierarchy(HierarchyConfig cfg);
  /// Closes the measurement region in VECFD_MEASUREMENT_GUARD builds
  /// (measurement_guard.h); trivial otherwise.
  ~MemoryHierarchy();
  MemoryHierarchy(const MemoryHierarchy&) = default;
  MemoryHierarchy& operator=(const MemoryHierarchy&) = default;

  /// Touch the line containing @p addr.
  AccessResult access(std::uintptr_t addr);

  /// Touch every line overlapping [addr, addr + bytes), in address order.
  RangeAccess touch_range(std::uintptr_t addr, std::size_t bytes);

  /// Invalidate all cached lines and forget the canonical address mapping
  /// (e.g. between independent experiments).
  void flush();

  const HierarchyConfig& config() const { return cfg_; }
  const Cache& l1() const { return l1_; }
  const Cache& l2() const { return l2_; }

  std::uint64_t l1_accesses() const { return l1_.accesses(); }
  std::uint64_t l1_misses() const { return l1_.misses(); }
  std::uint64_t l2_misses() const { return l2_.misses(); }

 private:
  /// Map @p addr into the dense first-touch canonical space.
  std::uintptr_t canonical(std::uintptr_t addr);

  HierarchyConfig cfg_;
  Cache l1_;
  Cache l2_;
  std::uintptr_t line_mask_;
  std::unordered_map<std::uintptr_t, std::uintptr_t> line_map_;
  std::uintptr_t next_line_ = 0;
};

}  // namespace vecfd::mem
