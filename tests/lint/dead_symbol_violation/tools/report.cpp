// vecfd-lint fixture: the one shipped program calls area() and width()
// only; "perimeter" in a comment or a string literal is not a call.
// Not compiled.
#include <cstdio>

#include "geo/shape.h"

int main() {
  const geo::Box b(2.0, 3.0);
  std::printf("perimeter %f\n", geo::area(b.width(), 3.0));
  return 0;
}
