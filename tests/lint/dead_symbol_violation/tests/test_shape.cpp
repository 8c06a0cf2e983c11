// vecfd-lint fixture: a test is not a shipped program, so these calls keep
// nothing alive.  Not compiled.
#include "geo/shape.h"

void check() {
  const geo::Box b(2.0, 3.0);
  (void)geo::perimeter(b.width(), b.height());
  (void)b.debug_id();
}
