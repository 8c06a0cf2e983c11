// vecfd-lint fixture: definitions.  Not compiled.
#include "geo/shape.h"

namespace geo {

double area(double w, double h) { return w * h; }

double perimeter(double w, double h) { return 2.0 * (w + h); }

}  // namespace geo
