// Tests for the algebraic substrate: CSR structure, SpMV, Krylov solvers.
#include <gtest/gtest.h>

#include <cmath>
#include <random>
#include <vector>

#include "solver/csr.h"
#include "solver/krylov.h"
#include "support/host_bicgstab.h"

namespace {

using vecfd::solver::bicgstab;
using vecfd::solver::cg;
using vecfd::solver::CsrMatrix;
using vecfd::solver::PrecondKind;
using vecfd::solver::SolveOptions;

/// 1-D Poisson matrix (tridiagonal 2,-1) of size n.
CsrMatrix poisson1d(int n) {
  std::vector<std::vector<int>> adj(n);
  for (int i = 0; i < n; ++i) {
    if (i > 0) adj[i].push_back(i - 1);
    if (i < n - 1) adj[i].push_back(i + 1);
  }
  CsrMatrix a(adj);
  for (int i = 0; i < n; ++i) {
    a.add(i, i, 2.0);
    if (i > 0) a.add(i, i - 1, -1.0);
    if (i < n - 1) a.add(i, i + 1, -1.0);
  }
  return a;
}

/// Nonsymmetric advection-diffusion-like matrix.
CsrMatrix advdiff1d(int n, double c) {
  std::vector<std::vector<int>> adj(n);
  for (int i = 0; i < n; ++i) {
    if (i > 0) adj[i].push_back(i - 1);
    if (i < n - 1) adj[i].push_back(i + 1);
  }
  CsrMatrix a(adj);
  for (int i = 0; i < n; ++i) {
    a.add(i, i, 2.0 + 0.1);
    if (i > 0) a.add(i, i - 1, -1.0 - c);
    if (i < n - 1) a.add(i, i + 1, -1.0 + c);
  }
  return a;
}

TEST(Csr, PatternSortedDedupedWithDiagonal) {
  CsrMatrix a(std::vector<std::vector<int>>{{2, 1, 1}, {0}, {0, 1}});
  // row 0: {0(diag), 1, 2}; row 1: {0, 1(diag)}; row 2: {0, 1, 2(diag)}
  EXPECT_EQ(a.rows(), 3);
  ASSERT_EQ(a.row_cols(0).size(), 3u);
  EXPECT_EQ(a.row_cols(0)[0], 0);
  EXPECT_EQ(a.row_cols(0)[1], 1);
  EXPECT_EQ(a.row_cols(0)[2], 2);
  EXPECT_EQ(a.row_cols(1).size(), 2u);
  EXPECT_GE(a.find(2, 2), 0);
  EXPECT_EQ(a.find(1, 2), -1);
}

TEST(Csr, AddAndAtRoundTrip) {
  CsrMatrix a = poisson1d(5);
  EXPECT_DOUBLE_EQ(a.at(2, 2), 2.0);
  EXPECT_DOUBLE_EQ(a.at(2, 1), -1.0);
  EXPECT_DOUBLE_EQ(a.at(2, 4), 0.0);  // outside pattern
  a.add(2, 2, 0.5);
  EXPECT_DOUBLE_EQ(a.at(2, 2), 2.5);
  EXPECT_THROW(a.add(0, 4, 1.0), std::out_of_range);
}

TEST(Csr, RejectsOutOfRangeAdjacency) {
  EXPECT_THROW(CsrMatrix(std::vector<std::vector<int>>{{5}}),
               std::out_of_range);
}

TEST(Csr, SpmvMatchesDense) {
  CsrMatrix a = advdiff1d(6, 0.3);
  std::vector<double> x{1, -2, 3, -4, 5, -6};
  std::vector<double> y(6);
  a.spmv(x, y);
  for (int i = 0; i < 6; ++i) {
    double expect = 0.0;
    for (int j = 0; j < 6; ++j) expect += a.at(i, j) * x[j];
    EXPECT_NEAR(y[i], expect, 1e-13);
  }
}

TEST(Csr, SpmvDimensionCheck) {
  CsrMatrix a = poisson1d(4);
  std::vector<double> x(3), y(4);
  EXPECT_THROW(a.spmv(x, y), std::invalid_argument);
}

TEST(Csr, SetZeroKeepsPattern) {
  CsrMatrix a = poisson1d(4);
  a.set_zero();
  EXPECT_DOUBLE_EQ(a.at(1, 1), 0.0);
  EXPECT_GE(a.find(1, 1), 0);
}

TEST(Cg, SolvesPoissonToTolerance) {
  const int n = 64;
  CsrMatrix a = poisson1d(n);
  std::vector<double> xref(n);
  std::mt19937 rng(1);
  std::uniform_real_distribution<double> u(-1.0, 1.0);
  for (double& v : xref) v = u(rng);
  std::vector<double> b(n);
  a.spmv(xref, b);
  std::vector<double> x(n, 0.0);
  const auto rep = cg(a, b, x, {.max_iterations = 500,
                                .rel_tolerance = 1e-12,
                                .precond = {}});
  EXPECT_TRUE(rep.converged);
  for (int i = 0; i < n; ++i) EXPECT_NEAR(x[i], xref[i], 1e-8);
}

TEST(Cg, ResidualHistoryIsRecorded) {
  CsrMatrix a = poisson1d(32);
  std::vector<double> b(32, 1.0);
  std::vector<double> x(32, 0.0);
  const auto rep = cg(a, b, x);
  EXPECT_TRUE(rep.converged);
  // history[0] is the initial residual (1 for a zero guess), then one
  // entry per iteration — the krylov.h length invariant
  ASSERT_EQ(static_cast<int>(rep.history.size()), rep.iterations + 1);
  EXPECT_DOUBLE_EQ(rep.history.front(), 1.0);
  EXPECT_LT(rep.history.back(), rep.history.front());
  EXPECT_DOUBLE_EQ(rep.history.back(), rep.residual);
}

TEST(Cg, ZeroRhsGivesZeroSolution) {
  CsrMatrix a = poisson1d(8);
  std::vector<double> b(8, 0.0);
  std::vector<double> x(8, 3.0);
  const auto rep = cg(a, b, x);
  EXPECT_TRUE(rep.converged);
  for (double v : x) EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST(Cg, WithoutPreconditionerStillConverges) {
  CsrMatrix a = poisson1d(32);
  std::vector<double> b(32, 1.0);
  std::vector<double> x(32, 0.0);
  const auto rep = cg(a, b, x, {.max_iterations = 200,
                                .rel_tolerance = 1e-10,
                                .precond = {.kind = PrecondKind::kNone}});
  EXPECT_TRUE(rep.converged);
}

TEST(Cg, InjectedBreakdownTakesTheFailureExit) {
  // The host cg shares vcg's recurrence, so the fault hook reaches it too:
  // the solve never runs, x stays put, the true residual is reported.
  CsrMatrix a = poisson1d(16);
  std::vector<double> b(16, 1.0);
  std::vector<double> x(16, 0.25);
  const std::vector<double> x0 = x;
  SolveOptions opts;
  opts.inject_breakdown = true;
  const auto rep = cg(a, b, x, opts);
  EXPECT_EQ(rep.failure, "injected solver breakdown (fault plan)");
  EXPECT_EQ(rep.iterations, 0);
  ASSERT_EQ(rep.history.size(), 1u);
  EXPECT_GT(rep.residual, 0.0);
  EXPECT_EQ(x, x0);
}

TEST(Bicgstab, SolvesNonsymmetricSystem) {
  const int n = 64;
  CsrMatrix a = advdiff1d(n, 0.6);
  std::vector<double> xref(n);
  std::mt19937 rng(2);
  std::uniform_real_distribution<double> u(-1.0, 1.0);
  for (double& v : xref) v = u(rng);
  std::vector<double> b(n);
  a.spmv(xref, b);
  std::vector<double> x(n, 0.0);
  const auto rep = bicgstab(a, b, x, {.max_iterations = 500,
                                      .rel_tolerance = 1e-12,
                                      .precond = {}});
  EXPECT_TRUE(rep.converged);
  for (int i = 0; i < n; ++i) EXPECT_NEAR(x[i], xref[i], 1e-7);
}

TEST(Bicgstab, HandlesIdentityInOneIteration) {
  std::vector<std::vector<int>> adj(5);
  CsrMatrix a(adj);
  for (int i = 0; i < 5; ++i) a.add(i, i, 1.0);
  std::vector<double> b{1, 2, 3, 4, 5};
  std::vector<double> x(5, 0.0);
  const auto rep = bicgstab(a, b, x);
  EXPECT_TRUE(rep.converged);
  EXPECT_LE(rep.iterations, 2);
  for (int i = 0; i < 5; ++i) EXPECT_NEAR(x[i], b[i], 1e-12);
}

// ---- breakdown-reporting contract (krylov.h) ---------------------------
// A breakdown exit must leave rep.residual equal to the true relative
// residual of the returned x.  The old code `break`-ed without updating it,
// so a first-iteration breakdown returned residual == 0 with
// converged == false — a value that reads as fully converged.

/// diag(1, -1): indefinite, so CG's p·Ap vanishes on the first iteration
/// when preconditioned (z = [1, -1], Ap = [1, 1]).
CsrMatrix indefinite2x2() {
  CsrMatrix a(std::vector<std::vector<int>>(2));
  a.add(0, 0, 1.0);
  a.add(1, 1, -1.0);
  return a;
}

TEST(Cg, BreakdownReportsTruthfulResidual) {
  CsrMatrix a = indefinite2x2();
  std::vector<double> b{1.0, 1.0};
  std::vector<double> x(2, 0.0);
  const auto rep = cg(a, b, x);  // p·Ap == 0 immediately
  EXPECT_FALSE(rep.converged);
  // the aborted first iteration is counted (see the krylov.h contract)
  EXPECT_EQ(rep.iterations, 1);
  ASSERT_EQ(rep.history.size(), 2u);  // initial residual + breakdown exit
  // nothing was solved: the true relative residual is ‖b‖/‖b‖ = 1
  EXPECT_NEAR(rep.residual, 1.0, 1e-14);
  EXPECT_NEAR(rep.history.back(), 1.0, 1e-14);
}

TEST(Cg, ExactInitialGuessReportsConvergence) {
  CsrMatrix a = poisson1d(8);
  std::vector<double> xref(8, 1.0);
  std::vector<double> b(8);
  a.spmv(xref, b);
  std::vector<double> x = xref;  // r = 0 → rz = 0 → pap = 0 breakdown path
  const auto rep = cg(a, b, x);
  EXPECT_TRUE(rep.converged);
  EXPECT_DOUBLE_EQ(rep.residual, 0.0);
}

TEST(Bicgstab, R0vBreakdownReportsTruthfulResidual) {
  CsrMatrix a = indefinite2x2();
  std::vector<double> b{1.0, 1.0};
  std::vector<double> x(2, 0.0);
  // unpreconditioned: v = A·r = [1, -1] ⟂ r0 = [1, 1] → r0·v == 0
  const auto rep =
      bicgstab(a, b, x, {.precond = {.kind = PrecondKind::kNone}});
  EXPECT_FALSE(rep.converged);
  EXPECT_NEAR(rep.residual, 1.0, 1e-14);
  ASSERT_FALSE(rep.history.empty());
  EXPECT_NEAR(rep.history.back(), 1.0, 1e-14);
}

TEST(Bicgstab, SingularOperatorBreakdownReportsTruthfulResidual) {
  // 2x2 zero matrix (pattern holds the diagonal, values stay 0): v = A·p
  // is identically zero, so r0·v == 0 with an untouched residual of 1.
  CsrMatrix a(std::vector<std::vector<int>>(2));
  std::vector<double> b{3.0, 4.0};
  std::vector<double> x(2, 0.0);
  const auto rep =
      bicgstab(a, b, x, {.precond = {.kind = PrecondKind::kNone}});
  EXPECT_FALSE(rep.converged);
  EXPECT_NEAR(rep.residual, 1.0, 1e-14);
}

TEST(Bicgstab, ExactInitialGuessReportsConvergence) {
  CsrMatrix a = poisson1d(4);
  std::vector<double> xref{1.0, -2.0, 0.5, 3.0};
  std::vector<double> b(4);
  a.spmv(xref, b);
  std::vector<double> x = xref;  // r = 0 → failed ρ restart breakdown path
  const auto rep = bicgstab(a, b, x);
  EXPECT_TRUE(rep.converged);
  EXPECT_DOUBLE_EQ(rep.residual, 0.0);
  for (int i = 0; i < 4; ++i) EXPECT_DOUBLE_EQ(x[i], xref[i]);
}

TEST(Jacobi, RejectsZeroDiagonal) {
  std::vector<std::vector<int>> adj(2);
  CsrMatrix a(adj);  // zero values on the diagonal
  EXPECT_THROW(vecfd::solver::jacobi_inverse_diagonal(a),
               std::runtime_error);
}

TEST(Blas1, DotNormAxpy) {
  std::vector<double> a{1, 2, 3};
  std::vector<double> b{4, 5, 6};
  EXPECT_DOUBLE_EQ(vecfd::solver::dot(a, b), 32.0);
  EXPECT_DOUBLE_EQ(vecfd::solver::norm2(std::vector<double>{3.0, 4.0}), 5.0);
  vecfd::solver::axpy(2.0, a, b);
  EXPECT_DOUBLE_EQ(b[2], 12.0);
  std::vector<double> c{1.0};
  EXPECT_THROW(vecfd::solver::dot(a, c), std::invalid_argument);
}

TEST(SolverDimensionChecks, Throw) {
  CsrMatrix a = poisson1d(4);
  std::vector<double> b(3), x(4);
  EXPECT_THROW(cg(a, b, x), std::invalid_argument);
  EXPECT_THROW(bicgstab(a, b, x), std::invalid_argument);
}

}  // namespace
