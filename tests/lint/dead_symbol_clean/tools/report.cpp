// vecfd-lint fixture: a shipped CLI.  Not compiled.
#include <cstdio>

#include "geo/shape.h"

int main() {
  const geo::Box b(2.0, 3.0);
  const geo::Shape& s = b;
  std::printf("%f\n", geo::scale(s.measure()));
  return 0;
}
