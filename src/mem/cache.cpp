#include "mem/cache.h"

#include <bit>
#include <stdexcept>

namespace vecfd::mem {

Cache::Cache(CacheConfig cfg) : cfg_(std::move(cfg)) {
  if (cfg_.line_bytes == 0 || !std::has_single_bit(cfg_.line_bytes)) {
    throw std::invalid_argument("cache '" + cfg_.name +
                                "': line_bytes must be a power of two");
  }
  if (cfg_.size_bytes != 0 && cfg_.associativity == 0) {
    throw std::invalid_argument("cache '" + cfg_.name +
                                "': associativity must be > 0");
  }
  num_sets_ = cfg_.num_sets();
  if (cfg_.size_bytes != 0 && num_sets_ == 0) {
    throw std::invalid_argument("cache '" + cfg_.name +
                                "': capacity smaller than one set");
  }
  line_shift_ = static_cast<unsigned>(std::countr_zero(cfg_.line_bytes));
  pow2_sets_ = std::has_single_bit(num_sets_);
  set_shift_ = static_cast<unsigned>(std::countr_zero(num_sets_));
  ways_.assign(num_sets_ * cfg_.associativity, Way{});
}

bool Cache::access(std::uintptr_t addr) {
  if (num_sets_ == 0) {  // capacity-less cache: every access misses
    ++misses_;
    return false;
  }
  const std::uintptr_t line = addr >> line_shift_;
  // XOR-fold the upper line bits into the set index.  Virtual-address
  // simulation is otherwise hostage to where the allocator happened to
  // place a buffer; folding models the physical-page scattering real
  // hierarchies see and removes pathological alias patterns.
  // Every shipped geometry has a power-of-two set count, where the
  // division and the modulo reduce to a shift and a mask.
  const std::size_t set =
      pow2_sets_
          ? static_cast<std::size_t>((line ^ (line >> set_shift_)) &
                                     (num_sets_ - 1))
          : static_cast<std::size_t>((line ^ (line / num_sets_)) % num_sets_);
  Way* base = &ways_[set * cfg_.associativity];
  ++tick_;

  // The victim is the way with the smallest stamp: an invalid way (stamp
  // 0) before any eviction, else the LRU way.
  Way* victim = base;
  for (unsigned w = 0; w < cfg_.associativity; ++w) {
    Way& way = base[w];
    if (way.tag == line && way.stamp != 0) {
      way.stamp = tick_;
      ++hits_;
      return true;
    }
    if (way.stamp < victim->stamp) victim = &way;
  }
  victim->tag = line;
  victim->stamp = tick_;
  ++misses_;
  return false;
}

void Cache::flush() {
  for (Way& w : ways_) w.stamp = 0;
}

std::size_t Cache::resident_lines() const {
  std::size_t n = 0;
  for (const Way& w : ways_) n += w.stamp != 0 ? 1 : 0;
  return n;
}

}  // namespace vecfd::mem
