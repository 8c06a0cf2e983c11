// vecfd-lint fixture: the definitions name their functions, which is not a
// use.  Not compiled.
#include "geo/shape.h"

namespace geo {

double area(double w, double h) { return w * h; }

double perimeter(double w, double h) { return 2.0 * (w + h); }

int Box::debug_id() const { return 7; }

}  // namespace geo
