#include "mem/memory_hierarchy.h"

#include <stdexcept>

#include "mem/measurement_guard.h"

namespace vecfd::mem {

MemoryHierarchy::MemoryHierarchy(HierarchyConfig cfg)
    : cfg_(cfg),
      l1_(cfg.l1),
      l2_(cfg.l2),
      line_mask_(static_cast<std::uintptr_t>(cfg.l1.line_bytes) - 1) {
  // Canonicalization renames at L1-line granularity; with a larger L2 line
  // the renaming would scramble which L1 lines share an L2 line based on
  // touch order.  No modelled platform does that — refuse rather than be
  // silently wrong.
  if (cfg_.l1.line_bytes != cfg_.l2.line_bytes) {
    throw std::invalid_argument(
        "MemoryHierarchy: L1/L2 line sizes must match");
  }
}

std::uintptr_t MemoryHierarchy::canonical(std::uintptr_t addr) {
  // Line-granular first-touch renaming: the n-th distinct host line becomes
  // canonical line n; offsets inside the line are preserved.  Distinct host
  // lines stay distinct (locality and working-set size are untouched) while
  // the absolute placement the allocator chose is erased.
  const std::uintptr_t line = addr & ~line_mask_;
  const auto [it, inserted] =
      line_map_.try_emplace(line, next_line_ * (line_mask_ + 1));
  if (inserted) {
    guard::on_line_mapped(this, line, next_line_);
    ++next_line_;
  } else {
    // Aborts in guard builds if this line's backing buffer was freed
    // mid-measurement and a new allocation is re-aliasing it; a no-op
    // otherwise (measurement_guard.h).
    guard::on_line_retouched(this, line);
  }
  return it->second | (addr & line_mask_);
}

AccessResult MemoryHierarchy::access(std::uintptr_t addr) {
  const std::uintptr_t canon = canonical(addr);
  if (l1_.access(canon)) {
    return {1, cfg_.l1_latency};
  }
  if (l2_.access(canon)) {
    return {2, cfg_.l1_latency + cfg_.l2_latency};
  }
  return {3, cfg_.l1_latency + cfg_.l2_latency + cfg_.mem_latency};
}

RangeAccess MemoryHierarchy::touch_range(std::uintptr_t addr,
                                         std::size_t bytes) {
  RangeAccess r;
  if (bytes == 0) return r;
  const std::uintptr_t first = addr & ~line_mask_;
  const std::uintptr_t last = (addr + bytes - 1) & ~line_mask_;
  for (std::uintptr_t a = first; a <= last; a += line_mask_ + 1) {
    const AccessResult hit = access(a);
    r.penalty += hit.penalty;
    ++r.lines;
    r.l1_misses += hit.level > 1 ? 1 : 0;
    r.l2_misses += hit.level > 2 ? 1 : 0;
  }
  return r;
}

void MemoryHierarchy::flush() {
  l1_.flush();
  l2_.flush();
  line_map_.clear();
  next_line_ = 0;
  guard::on_hierarchy_reset(this);
}

MemoryHierarchy::~MemoryHierarchy() { guard::on_hierarchy_reset(this); }

}  // namespace vecfd::mem
