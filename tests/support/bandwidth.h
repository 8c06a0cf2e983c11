// Test oracle: the bandwidth of an operator's sparsity pattern.
//
// The quantity RCM (fem::rcm_ordering) minimizes.  No shipped program
// reports it; the mesh, SpMV-format and SELL tests assert on it to check
// that a renumbering is bandwidth-reducing.
#pragma once

#include "solver/csr.h"

namespace vecfd::solver {

/// Bandwidth max |r − c| over the pattern of @p a.
int bandwidth(const CsrMatrix& a);

}  // namespace vecfd::solver
