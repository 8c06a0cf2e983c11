// vecfd::mem — set-associative cache model.
//
// The paper's analysis of the non-vectorized phases (Figure 9, Table 6)
// hinges on L1/L2 data-cache-miss behaviour as the application working set
// grows with VECTOR_SIZE.  This module provides the cache substrate that
// the vecfd::sim machine consults on every modelled memory access.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace vecfd::mem {

/// Geometry and identity of one cache level.
struct CacheConfig {
  std::size_t size_bytes = 32 * 1024;  ///< total capacity
  std::size_t line_bytes = 64;         ///< cache-line size (power of two)
  unsigned associativity = 8;          ///< ways per set
  std::string name = "L1";             ///< used in reports and errors

  /// Number of sets implied by the geometry (0 for a capacity-less cache).
  std::size_t num_sets() const {
    const std::size_t way_bytes = line_bytes * associativity;
    return way_bytes == 0 ? 0 : size_bytes / way_bytes;
  }
};

/// Set-associative, write-allocate cache with LRU replacement.
///
/// The model is tag-only: it tracks which lines are resident, not their
/// contents (the simulator executes real arithmetic on real host memory, so
/// contents are always exact).  A `size_bytes == 0` configuration is valid
/// and behaves as "always miss" — used by tests and by machine configs that
/// model a cache-less path.
class Cache {
 public:
  /// @throws std::invalid_argument for non-power-of-two line sizes or
  ///         zero associativity with non-zero capacity.
  explicit Cache(CacheConfig cfg);

  /// Touch the line containing @p addr.  @return true on hit.  On a miss the
  /// line is installed, evicting the LRU way of its set.
  bool access(std::uintptr_t addr);

  /// Count a hit on a line the caller knows is the most recent way of its
  /// set.  Re-stamping that way cannot change the LRU order of any set
  /// (victims are chosen by comparing stamps within one set), so the
  /// lookup and the stamp bump are skipped.
  void count_mru_hit() { ++hits_; }

  /// Drop all resident lines and reset nothing else (hit/miss counters are
  /// preserved so a flush mid-measurement stays visible in the statistics).
  void flush();

  const CacheConfig& config() const { return cfg_; }
  std::uint64_t misses() const { return misses_; }
  std::uint64_t accesses() const { return hits_ + misses_; }

 private:
  struct Way {
    std::uintptr_t tag = 0;
    std::uint64_t stamp = 0;  // LRU timestamp, larger == more recent;
                              // 0 marks an invalid way
  };

  CacheConfig cfg_;
  std::size_t num_sets_;
  unsigned line_shift_;
  bool pow2_sets_;      // set index by shift and mask, not division
  unsigned set_shift_;  // log2(num_sets_) when pow2_sets_
  std::vector<Way> ways_;  // num_sets_ * associativity, set-major
  std::uint64_t tick_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

}  // namespace vecfd::mem
