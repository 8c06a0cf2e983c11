// vecfd-lint fixture: a shipped bench.  Not compiled.
#include "geo/shape.h"

double bench_name_length(const geo::Box& b) {
  return static_cast<double>(b.name().size());
}
