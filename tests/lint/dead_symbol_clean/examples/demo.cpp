// vecfd-lint fixture: a shipped example.  Not compiled.
#include "geo/shape.h"

double demo() { return geo::area(1.0, 2.0); }
