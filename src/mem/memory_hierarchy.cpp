#include "mem/memory_hierarchy.h"

#include <algorithm>
#include <bit>
#include <stdexcept>

#include "mem/measurement_guard.h"

namespace vecfd::mem {

namespace {
/// Host page size the line table is keyed on.
constexpr unsigned kPageShift = 12;
/// Page-index capacity on first touch (entries, a power of two).
constexpr std::size_t kMinPageIndex = 64;

std::size_t page_hash(std::uintptr_t page) {
  const std::uint64_t h = static_cast<std::uint64_t>(page) *
                          0x9E3779B97F4A7C15ull;  // Fibonacci hashing
  return static_cast<std::size_t>(h ^ (h >> 32));
}
}  // namespace

MemoryHierarchy::MemoryHierarchy(HierarchyConfig cfg)
    : cfg_(cfg),
      l1_(cfg.l1),
      l2_(cfg.l2),
      line_mask_(static_cast<std::uintptr_t>(cfg.l1.line_bytes) - 1),
      line_shift_(static_cast<unsigned>(std::countr_zero(cfg.l1.line_bytes))),
      page_shift_(std::max(kPageShift, line_shift_)),
      fast_path_(cfg.l1.num_sets() != 0) {
  // Canonicalization renames at L1-line granularity; with a larger L2 line
  // the renaming would scramble which L1 lines share an L2 line based on
  // touch order.  No modelled platform does that — refuse rather than be
  // silently wrong.
  if (cfg_.l1.line_bytes != cfg_.l2.line_bytes) {
    throw std::invalid_argument(
        "MemoryHierarchy: L1/L2 line sizes must match");
  }
}

void MemoryHierarchy::grow_page_index() {
  std::vector<PageEntry> old = std::move(page_index_);
  page_index_.assign(std::max(kMinPageIndex, 2 * old.size()), PageEntry{});
  const std::size_t mask = page_index_.size() - 1;
  for (const PageEntry& e : old) {
    if (e.page == kNoPage) continue;
    std::size_t i = page_hash(e.page) & mask;
    while (page_index_[i].page != kNoPage) i = (i + 1) & mask;
    page_index_[i] = e;
  }
}

std::uint32_t MemoryHierarchy::page_block(std::uintptr_t page) {
  if (page == last_page_) return last_block_;
  const unsigned per_page = page_shift_ - line_shift_;
  const std::size_t blocks = lines_.size() >> per_page;
  if (2 * (blocks + 1) > page_index_.size()) grow_page_index();
  const std::size_t mask = page_index_.size() - 1;
  std::size_t i = page_hash(page) & mask;
  while (page_index_[i].page != page && page_index_[i].page != kNoPage) {
    i = (i + 1) & mask;
  }
  PageEntry& e = page_index_[i];
  if (e.page == kNoPage) {
    e.page = page;
    e.block = static_cast<std::uint32_t>(blocks);
    lines_.resize(lines_.size() + (std::size_t{1} << per_page));
  }
  last_page_ = page;
  last_block_ = e.block;
  return e.block;
}

MemoryHierarchy::LineSlot& MemoryHierarchy::slot(std::uintptr_t line) {
  // Line-granular first-touch renaming: the n-th distinct host line becomes
  // canonical line n.  Distinct host lines stay distinct (locality and
  // working-set size are untouched) while the absolute placement the
  // allocator chose is erased.
  const unsigned per_page = page_shift_ - line_shift_;
  const std::size_t index =
      (std::size_t{page_block(line >> page_shift_)} << per_page) |
      ((line >> line_shift_) & ((std::uintptr_t{1} << per_page) - 1));
  LineSlot& s = lines_[index];
  if (s.id == 0) {
    if (next_line_ == ~std::uint32_t{0}) {
      throw std::length_error("MemoryHierarchy: canonical line space full");
    }
    guard::on_line_mapped(this, line, next_line_);
    s.id = ++next_line_;
  } else {
    // Aborts in guard builds if this line's backing buffer was freed
    // mid-measurement and a new allocation is re-aliasing it; a no-op
    // otherwise (measurement_guard.h).
    guard::on_line_retouched(this, line);
  }
  return s;
}

AccessResult MemoryHierarchy::access_line(std::uintptr_t line) {
  LineSlot& s = slot(line);
  if (s.census != census_epoch_) {
    s.census = census_epoch_;
    ++census_lines_;
  }
  // After this access the line is the most recent way of its L1 set,
  // whether it hit or was installed.
  if (fast_path_) mru_line_ = line;
  const std::uintptr_t canon = std::uintptr_t{s.id - 1} << line_shift_;
  if (l1_.access(canon)) {
    return {1, cfg_.l1_latency};
  }
  if (l2_.access(canon)) {
    return {2, cfg_.l1_latency + cfg_.l2_latency};
  }
  return {3, cfg_.l1_latency + cfg_.l2_latency + cfg_.mem_latency};
}

AccessResult MemoryHierarchy::access(std::uintptr_t addr) {
  const std::uintptr_t line = addr & ~line_mask_;
  if (line == mru_line_) {
    // A repeat of the MRU way: an L1 hit that moves no set's LRU order.
    guard::on_line_retouched(this, line);
    l1_.count_mru_hit();
    return {1, cfg_.l1_latency};
  }
  return access_line(line);
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

void MemoryHierarchy::begin_census() {
  if (++census_epoch_ == 0) {  // epoch wrapped: no stale stamp may match
    for (LineSlot& s : lines_) s.census = 0;
    census_epoch_ = 1;
  }
  census_lines_ = 0;
  mru_line_ = kNoLine;
}

void MemoryHierarchy::flush() {
  l1_.flush();
  l2_.flush();
  std::fill(page_index_.begin(), page_index_.end(), PageEntry{});
  last_page_ = kNoPage;
  lines_.clear();
  next_line_ = 0;
  mru_line_ = kNoLine;
  census_lines_ = 0;
  guard::on_hierarchy_reset(this);
}

MemoryHierarchy::~MemoryHierarchy() { guard::on_hierarchy_reset(this); }

}  // namespace vecfd::mem
