// vecfd::mem — two-level cache hierarchy with latency attribution.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

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
/// line space.  Host virtual addresses only identify a line — where the
/// allocator placed a buffer (ASLR, heap history, per-thread arenas) cannot
/// influence hit/miss behaviour, so a measurement is a pure function of its
/// access sequence.  Together with the line-aligned global allocator
/// (mem/aligned_new.cpp) this makes sweeps reproducible run-to-run and lets
/// the parallel sweep engine promise byte-identical results to the serial
/// path.
///
/// The renaming lives in a flat line table: an open-addressed index maps
/// each touched 4 KiB host page to a block of per-line slots (canonical id
/// and census stamp), with a one-entry cache for the last page.  Nothing
/// is allocated until the first access, and the table holds indices only,
/// so the hierarchy stays cheap to build and copyable.
///
/// Fast path: once a line has been accessed it is the most recent way of
/// its L1 set, so an immediate repeat of that line is an L1 hit that
/// changes no set's LRU order.  `access()` counts it as such without the
/// table lookup or the way scan.  It is off for a capacity-less L1, where
/// every access misses, and is reset by `flush()` and `begin_census()`.
///
/// Census: `census_lines()` counts the distinct lines touched since the
/// last `begin_census()` (or `flush()`), by comparing each line's slot
/// stamp with the current census epoch — O(1) per line, no sorting.
/// `begin_census()` drops the fast path, so the first access of a census
/// always reaches its line's stamp.  `Vpu::vgather` uses it for
/// `gather_lines_touched`.
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

  /// Start a new distinct-line census (see the class comment).
  void begin_census();
  /// Distinct lines touched since the last begin_census() or flush().
  std::uint64_t census_lines() const { return census_lines_; }

  const HierarchyConfig& config() const { return cfg_; }
  const Cache& l1() const { return l1_; }
  const Cache& l2() const { return l2_; }

  std::uint64_t l1_accesses() const { return l1_.accesses(); }
  std::uint64_t l1_misses() const { return l1_.misses(); }
  std::uint64_t l2_misses() const { return l2_.misses(); }

 private:
  /// One host line's entry in the line table.
  struct LineSlot {
    std::uint32_t id = 0;      ///< canonical line + 1; 0 = not yet touched
    std::uint32_t census = 0;  ///< census epoch that last counted the line
  };
  /// One page-index entry: a host page and its block of line slots.
  struct PageEntry {
    std::uintptr_t page = kNoPage;
    std::uint32_t block = 0;
  };
  static constexpr std::uintptr_t kNoPage = ~std::uintptr_t{0};
  /// Not line-aligned, so never equal to a host line.
  static constexpr std::uintptr_t kNoLine = ~std::uintptr_t{0};

  /// access() past the fast path: rename @p line and run it through the
  /// caches.
  AccessResult access_line(std::uintptr_t line);
  /// Slot of host @p line, mapped in first-touch order if it is new.
  LineSlot& slot(std::uintptr_t line);
  /// Block index of host @p page, adding a zeroed block if it is new.
  std::uint32_t page_block(std::uintptr_t page);
  /// Double the page index (or create it) and rehash its entries.
  void grow_page_index();

  HierarchyConfig cfg_;
  Cache l1_;
  Cache l2_;
  std::uintptr_t line_mask_;
  unsigned line_shift_;
  unsigned page_shift_;   ///< log2 of the bytes one table block covers
  bool fast_path_;        ///< L1 keeps lines (it has capacity)
  std::vector<PageEntry> page_index_;  ///< open addressing, 2^k entries
  std::uintptr_t last_page_ = kNoPage;
  std::uint32_t last_block_ = 0;
  std::vector<LineSlot> lines_;  ///< block b holds lines [b << k, (b+1) << k)
  std::uint32_t next_line_ = 0;
  std::uintptr_t mru_line_ = kNoLine;  ///< host line of the last access
  std::uint32_t census_epoch_ = 1;
  std::uint64_t census_lines_ = 0;
};

}  // namespace vecfd::mem
