// vecfd-lint fixture: counter-registry VIOLATIONS (mini repo root).
// Parsed only by tools/vecfd_lint.py --self-test via --repo-root.
#pragma once
#include <cstdint>

namespace vecfd::sim {

#define VECFD_COUNTERS(X)                        \
  X(cycles, std::uint64_t, "cycles")             \
  X(flops, double, "flops")                      \
  X(hidden_from_csv, std::uint64_t, "hidden")

#define VECFD_COUNTER_FIELD(name, type, col) type name = {};
#define VECFD_COUNTER_SUB(name, type, col) name -= o.name;
#define VECFD_COUNTER_VISIT(name, type, col) fn(col, name);

struct Counters {
  VECFD_COUNTERS(VECFD_COUNTER_FIELD)

  // A field smuggled past the registry: never aggregated, never emitted.
  std::uint64_t smuggled = 0;  // EXPECT-FINDING(counter-registry)

  template <class Fn>  // vecfd-lint: allow(dead-symbol) fixture: no caller
  void visit(Fn&& fn) const {
    VECFD_COUNTERS(VECFD_COUNTER_VISIT)
  }

  // Hand-written aggregation: drifts the moment the registry grows.
  Counters& operator+=(const Counters& o) {  // EXPECT-FINDING(counter-registry)
    cycles += o.cycles;
    flops += o.flops;
    return *this;
  }

  // Expands the registry but ALSO names a field on the side.
  Counters& operator-=(const Counters& o) {  // EXPECT-FINDING(counter-registry)
    VECFD_COUNTERS(VECFD_COUNTER_SUB)
    flops -= o.flops;
    return *this;
  }
};

}  // namespace vecfd::sim
