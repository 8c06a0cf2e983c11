// vecfd::sim — hardware-counter model.
//
// Mirrors the quantities the paper gathers with PAPI/Extrae and the Vehave
// emulator (§2.2): total and vector cycles (ct, cv), total and vector
// instruction counts (it, iv), per-class instruction counts, the summed
// vector length of vector instructions (for AVL), and L1/L2 data-cache
// misses (mL1, mL2).
//
// The counter set is a REGISTRY: the VECFD_COUNTERS X-macro below is the
// single source of truth for every counter, and everything that must stay
// in sync with it — operator+=/operator-=, the per-counter CSV columns
// (core/csv.cpp) and the field-by-field conservation comparison in
// tests/test_time_loop_conservation.cpp — is generated from it, either by
// expanding the macro directly or through the visit()/visit_fields()/
// visit_pairs() visitors.  Adding a counter is ONE line here; a consumer
// that tries to enumerate counters by hand instead is a vecfd-lint
// `counter-registry` finding, and a field declared outside the registry
// trips the sizeof static_assert at the bottom.
#pragma once

#include <cstddef>
#include <cstdint>
#include <type_traits>

#include "sim/instruction.h"

namespace vecfd::sim {

/// Instruction class a counter counts, or kNotInstr for cycle / work /
/// memory counters.  Mirrors InstrKind one-to-one so record() can be
/// generated from the registry.
enum class CounterClass {
  kNotInstr,
  kScalarAlu,
  kScalarMem,
  kVConfig,
  kVArith,
  kVMemUnit,
  kVMemStrided,
  kVMemIndexed,
  kVCtrl,
};

/// Which derived CSV schemas carry the counter as its own column
/// (core/csv.cpp iterates the registry in declaration order).
enum class CounterCsv {
  kNone,   ///< not a CSV column (feeds derived metrics instead)
  kSweep,  ///< sweep CSV only
  kBoth,   ///< sweep AND campaign CSV
};

constexpr bool in_sweep_csv(CounterCsv c) { return c != CounterCsv::kNone; }
constexpr bool in_campaign_csv(CounterCsv c) { return c == CounterCsv::kBoth; }

constexpr bool is_vector_memory_class(CounterClass c) {
  return c == CounterClass::kVMemUnit || c == CounterClass::kVMemStrided ||
         c == CounterClass::kVMemIndexed;
}
/// The paper's "Vector" box: arithmetic + memory + control lane.
constexpr bool is_vector_class(CounterClass c) {
  return c == CounterClass::kVArith || is_vector_memory_class(c) ||
         c == CounterClass::kVCtrl;
}
constexpr bool is_instr_class(CounterClass c) {
  return c != CounterClass::kNotInstr;
}

// The counter registry.  X(name, type, class, csv, csv_column, doc):
//   name        field name (also the visitor-reported name)
//   type        std::uint64_t for counts, double for cycle accumulators
//   class       CounterClass enumerator (sans scope) — kScalarAlu..kVCtrl
//               for instruction counters, kNotInstr otherwise; record()
//               and the derived instruction totals are generated from it
//   csv         CounterCsv enumerator (sans scope): which CSV schemas
//               carry the counter as its own column
//   csv_column  column name in those schemas ("" when csv is kNone)
//   doc         one-line description
//
// Declaration order is load-bearing for the CSV schemas: columns appear in
// registry order, so appending new counters at the end keeps existing
// golden CSVs stable.
// clang-format off
#define VECFD_COUNTERS(X)                                                     \
  X(scalar_alu_instrs, std::uint64_t, kScalarAlu, kNone, "",                  \
    "scalar integer/FP arithmetic, branches, address calculation")            \
  X(scalar_mem_instrs, std::uint64_t, kScalarMem, kNone, "",                  \
    "scalar loads and stores")                                                \
  X(vconfig_instrs, std::uint64_t, kVConfig, kNone, "",                       \
    "vsetvl-style vector-length configuration")                               \
  X(varith_instrs, std::uint64_t, kVArith, kNone, "",                         \
    "vector arithmetic (add/mul/fma/div/sqrt/reductions)")                    \
  X(vmem_unit_instrs, std::uint64_t, kVMemUnit, kNone, "",                    \
    "unit-stride vector loads/stores")                                        \
  X(vmem_strided_instrs, std::uint64_t, kVMemStrided, kNone, "",              \
    "constant-stride vector loads/stores")                                    \
  X(vmem_indexed_instrs, std::uint64_t, kVMemIndexed, kNone, "",              \
    "indexed (gather/scatter) vector loads/stores")                           \
  X(vctrl_instrs, std::uint64_t, kVCtrl, kNone, "",                           \
    "control-lane: broadcasts, moves, merges, slides")                        \
  X(scalar_cycles, double, kNotInstr, kNone, "",                              \
    "cycles in scalar instructions (includes vconfig issue cost)")            \
  X(vector_cycles, double, kNotInstr, kNone, "",                              \
    "cv: cycles executing vector instructions")                               \
  X(vl_sum, std::uint64_t, kNotInstr, kNone, "",                              \
    "sum of vl over all vector instructions (AVL numerator)")                 \
  X(flops, std::uint64_t, kNotInstr, kSweep, "flops",                         \
    "double-precision FLOPs actually performed")                              \
  X(l1_accesses, std::uint64_t, kNotInstr, kNone, "",                         \
    "L1 data-cache accesses")                                                 \
  X(l1_misses, std::uint64_t, kNotInstr, kSweep, "l1_misses",                 \
    "mL1: L1 data-cache misses")                                              \
  X(l2_misses, std::uint64_t, kNotInstr, kSweep, "l2_misses",                 \
    "mL2: L2 data-cache misses")                                              \
  X(gather_lanes, std::uint64_t, kNotInstr, kNone, "",                        \
    "lanes actually gathered by vgather (masked pad lanes excluded)")         \
  X(gather_lines_touched, std::uint64_t, kNotInstr, kBoth, "gather_lines",    \
    "distinct cache lines touched by vgather, summed per instruction - "      \
    "the locality metric the SELL/RCM co-design attacks")                     \
  X(coalesced_lanes, std::uint64_t, kNotInstr, kBoth, "coalesced_lanes",      \
    "gather lanes served by the coalescing unit-stride fast path "            \
    "(Vpu::note_coalesced_lanes)")                                            \
  X(pad_lanes, std::uint64_t, kNotInstr, kBoth, "pad_lanes",                  \
    "vgather lanes masked off as storage-format padding: +0.0 and ZERO "     \
    "cache traffic (pad-hygiene contract, test_sell_format)")                 \
  X(halo_lines_sent, std::uint64_t, kNotInstr, kBoth, "halo_lines_sent",      \
    "distinct owner cache lines read to serve ghost transfers "               \
    "(sim::HaloExchange, charged on the OWNING shard's Vpu)")                 \
  X(halo_lines_recv, std::uint64_t, kNotInstr, kBoth, "halo_lines_recv",      \
    "distinct ghost-slot cache lines written by ghost transfers "             \
    "(sim::HaloExchange, charged on the RECEIVING shard's Vpu)")              \
  X(halo_messages, std::uint64_t, kNotInstr, kBoth, "halo_messages",          \
    "point-to-point ghost-exchange messages: one per (receiver, owner) "      \
    "pair with a non-empty halo block per exchange")
// clang-format on

/// Number of registered counters.
#define VECFD_COUNTER_ONE(name, type, cls, csv, col, doc) +1
inline constexpr int kNumCounters = 0 VECFD_COUNTERS(VECFD_COUNTER_ONE);
#undef VECFD_COUNTER_ONE

// record() case generation: one helper per CounterClass enumerator maps an
// instruction-class counter to its switch case; kNotInstr counters emit
// nothing.  Token-pasted from the registry's class column.
#define VECFD_COUNTER_CASE_kNotInstr(name)
#define VECFD_COUNTER_CASE_kScalarAlu(name) \
  case InstrKind::kScalarAlu: ++name; break;
#define VECFD_COUNTER_CASE_kScalarMem(name) \
  case InstrKind::kScalarMem: ++name; break;
#define VECFD_COUNTER_CASE_kVConfig(name) \
  case InstrKind::kVConfig: ++name; break;
#define VECFD_COUNTER_CASE_kVArith(name) \
  case InstrKind::kVArith: ++name; break;
#define VECFD_COUNTER_CASE_kVMemUnit(name) \
  case InstrKind::kVMemUnit: ++name; break;
#define VECFD_COUNTER_CASE_kVMemStrided(name) \
  case InstrKind::kVMemStrided: ++name; break;
#define VECFD_COUNTER_CASE_kVMemIndexed(name) \
  case InstrKind::kVMemIndexed: ++name; break;
#define VECFD_COUNTER_CASE_kVCtrl(name) \
  case InstrKind::kVCtrl: ++name; break;

/// Metadata a visitor receives alongside each counter's value.
struct CounterInfo {
  const char* name;        ///< field name, e.g. "gather_lines_touched"
  CounterClass cls;        ///< instruction class, or kNotInstr
  CounterCsv csv;          ///< CSV schema membership
  const char* csv_column;  ///< column name where csv != kNone, else ""
};

struct Counters {
  // ---- the registered counters, in registry order ------------------------
#define VECFD_COUNTER_FIELD(name, type, cls, csv, col, doc) type name = {};
  VECFD_COUNTERS(VECFD_COUNTER_FIELD)
#undef VECFD_COUNTER_FIELD

  // ---- registry visitors -------------------------------------------------
  /// Visit the registry metadata only (no instance): fn(CounterInfo).
  /// This is what schema writers iterate so column sets derive from the
  /// registry instead of hand-kept lists.
  template <class Fn>
  static constexpr void visit_fields(Fn&& fn) {
#define VECFD_COUNTER_VISIT(name, type, cls, csv, col, doc)               \
    fn(CounterInfo{#name, CounterClass::cls, CounterCsv::csv, col});
    VECFD_COUNTERS(VECFD_COUNTER_VISIT)
#undef VECFD_COUNTER_VISIT
  }

  /// Visit every counter with its value: fn(CounterInfo, const T&).
  template <class Fn>
  constexpr void visit(Fn&& fn) const {
#define VECFD_COUNTER_VISIT(name, type, cls, csv, col, doc)               \
    fn(CounterInfo{#name, CounterClass::cls, CounterCsv::csv, col}, name);
    VECFD_COUNTERS(VECFD_COUNTER_VISIT)
#undef VECFD_COUNTER_VISIT
  }

  /// Mutable overload: fn(CounterInfo, T&).  This is what deserializers
  /// iterate (miniapp/checkpoint.cpp) so a counter registered here is
  /// round-tripped through the checkpoint format automatically.
  template <class Fn>
  constexpr void visit(Fn&& fn) {
#define VECFD_COUNTER_VISIT(name, type, cls, csv, col, doc)               \
    fn(CounterInfo{#name, CounterClass::cls, CounterCsv::csv, col}, name);
    VECFD_COUNTERS(VECFD_COUNTER_VISIT)
#undef VECFD_COUNTER_VISIT
  }

  /// Visit two instances in lockstep: fn(CounterInfo, const T&, const T&).
  /// The conservation test compares Σphases against totals through this,
  /// so a new counter is covered the moment it enters the registry.
  template <class Fn>
  static constexpr void visit_pairs(const Counters& a, const Counters& b,
                                    Fn&& fn) {
#define VECFD_COUNTER_VISIT(name, type, cls, csv, col, doc)               \
    fn(CounterInfo{#name, CounterClass::cls, CounterCsv::csv, col},       \
       a.name, b.name);
    VECFD_COUNTERS(VECFD_COUNTER_VISIT)
#undef VECFD_COUNTER_VISIT
  }

  // ---- derived totals (generated from the class tags) --------------------
  std::uint64_t vmem_instrs() const {
    return class_sum([](CounterClass c) { return is_vector_memory_class(c); });
  }
  /// iv: instructions executed on the VPU (Figure 1 "Vector" box).
  std::uint64_t vector_instrs() const {
    return class_sum([](CounterClass c) { return is_vector_class(c); });
  }
  /// it: every executed instruction.
  std::uint64_t total_instrs() const {
    return class_sum([](CounterClass c) { return is_instr_class(c); });
  }
  /// ct: total cycles (scalar and vector pipelines are not overlapped in the
  /// in-order prototype, matching the paper's observation in §4).
  double total_cycles() const { return scalar_cycles + vector_cycles; }

  /// Record one instruction of class @p kind costing @p cycles; vector
  /// instructions additionally account their vector length @p vl.  The
  /// switch cases are generated from the registry's class column, so an
  /// instruction-class counter cannot be registered without being counted.
  void record(InstrKind kind, double cycles, std::uint64_t vl = 0) {
    switch (kind) {
#define VECFD_COUNTER_RECORD(name, type, cls, csv, col, doc) \
      VECFD_COUNTER_CASE_##cls(name)
      VECFD_COUNTERS(VECFD_COUNTER_RECORD)
#undef VECFD_COUNTER_RECORD
    }
    if (is_vector(kind)) {
      vector_cycles += cycles;
      vl_sum += vl;
    } else {
      scalar_cycles += cycles;
    }
  }

  Counters& operator+=(const Counters& o);
  Counters& operator-=(const Counters& o);
  friend Counters operator+(Counters a, const Counters& b) { return a += b; }
  friend Counters operator-(Counters a, const Counters& b) { return a -= b; }

 private:
  template <class Pred>
  std::uint64_t class_sum(Pred pred) const {
    std::uint64_t t = 0;
    visit([&](const CounterInfo& info, const auto& v) {
      if constexpr (std::is_same_v<std::decay_t<decltype(v)>,
                                   std::uint64_t>) {
        if (pred(info.cls)) t += v;
      }
    });
    return t;
  }
};

// Every counter is an 8-byte scalar, so any field smuggled into the struct
// past the registry (bypassing operator+=, the CSV schemas and the
// conservation test) changes sizeof and fails here at compile time.
static_assert(sizeof(Counters) == static_cast<std::size_t>(kNumCounters) * 8,
              "Counters has a data member that is not in the VECFD_COUNTERS "
              "registry — add it there, never as a bare field");

inline Counters& Counters::operator+=(const Counters& o) {
#define VECFD_COUNTER_ADD(name, type, cls, csv, col, doc) name += o.name;
  VECFD_COUNTERS(VECFD_COUNTER_ADD)
#undef VECFD_COUNTER_ADD
  return *this;
}

inline Counters& Counters::operator-=(const Counters& o) {
#define VECFD_COUNTER_SUB(name, type, cls, csv, col, doc) name -= o.name;
  VECFD_COUNTERS(VECFD_COUNTER_SUB)
#undef VECFD_COUNTER_SUB
  return *this;
}

}  // namespace vecfd::sim
