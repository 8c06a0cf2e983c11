// vecfd-lint fixture: counter-registry COMPLIANT (mini repo root) — every
// field is a VECFD_COUNTERS entry, the operators are pure registry
// expansions, member functions may keep locals (masked out of the member
// scan).  Parsed only by tools/vecfd_lint.py --self-test via --repo-root.
#pragma once
#include <cstdint>

namespace vecfd::sim {

#define VECFD_COUNTERS(X)                \
  X(cycles, std::uint64_t, "cycles")     \
  X(flops, double, "flops")

#define VECFD_COUNTER_FIELD(name, type, col) type name = {};
#define VECFD_COUNTER_ADD(name, type, col) name += o.name;
#define VECFD_COUNTER_SUB(name, type, col) name -= o.name;
#define VECFD_COUNTER_VISIT(name, type, col) fn(col, name);

struct Counters {
  VECFD_COUNTERS(VECFD_COUNTER_FIELD)

  template <class Fn>
  void visit(Fn&& fn) const {
    VECFD_COUNTERS(VECFD_COUNTER_VISIT)
  }

  Counters& operator+=(const Counters& o) {
    VECFD_COUNTERS(VECFD_COUNTER_ADD)
    return *this;
  }

  Counters& operator-=(const Counters& o) {
    VECFD_COUNTERS(VECFD_COUNTER_SUB)
    return *this;
  }

  /// Member-function locals are masked out of the field scan: this `=`
  /// initialiser must not read as a smuggled data member.
  // vecfd-lint: allow(dead-symbol) fixture: a mini root for counter-registry
  std::uint64_t busy() const {
    std::uint64_t t = 0;
    visit([&](const char*, const auto& v) { t += static_cast<std::uint64_t>(v); });
    return t;
  }
};

}  // namespace vecfd::sim
