// vecfd-lint fixture: the end-to-end benchmark is a shipped program too.
// Not compiled.
#include "geo/shape.h"

double workload() { return geo::perimeter(1.0, 2.0); }
