// Test oracle: the host BiCGStab solvers.
//
// Plain double loops running the ONE recurrence of
// solver/bicgstab_recurrence.h, the one solver::vbicgstab_multi runs on an
// instrumented Vpu.  No shipped program solves on the host, so these live
// with the tests: the Vpu solvers, the multi-RHS block and the golden
// bicgstab counter rows are checked against them.  Both honour the full
// SolveReport contract of solver/krylov.h and accept only the kNone and
// kJacobi rungs (solver::require_jacobi_rung).
#pragma once

#include <span>
#include <vector>

#include "solver/csr.h"
#include "solver/krylov.h"

namespace vecfd::solver {

/// BiCGStab — for the nonsymmetric semi-implicit momentum operator
/// (convection makes it non-self-adjoint).  bicgstab_multi at k = 1.
SolveReport bicgstab(const CsrMatrix& a, std::span<const double> b,
                     std::span<double> x, const SolveOptions& opts = {});

/// Multi-RHS BiCGStab: solves A·x_d = b_d for k right-hand sides sharing
/// one operator.  @p b and @p x hold k node-major columns (column d spans
/// [d·n, (d+1)·n)); the k recurrences are mathematically independent and
/// advanced in lockstep, each with its own Krylov scalars and its own
/// convergence / breakdown lifecycle, so column d returns bit-for-bit the
/// iterate `bicgstab(a, b_d, x_d)` would.  A column that converges or
/// breaks down is masked out of all further work.  One SolveReport per
/// column, each honouring the full contract of solver/krylov.h.
std::vector<SolveReport> bicgstab_multi(const CsrMatrix& a,
                                        std::span<const double> b,
                                        std::span<double> x, int k,
                                        const SolveOptions& opts = {});

}  // namespace vecfd::solver
