// Integration of the algebraic substrate with the assembled operators:
// the full "CFD = assembly + solver" pipeline of §2.3 at test scale.
#include <gtest/gtest.h>

#include <cmath>

#include "solver/krylov.h"
#include "support/host_bicgstab.h"
#include "support/reference_assembly.h"

namespace {

using namespace vecfd;
using fem::kDim;
using fem::kDofs;

struct System {
  System()
      : mesh({.nx = 4, .ny = 4, .nz = 4}),
        state(mesh),
        shape(),
        sys(fem::assemble_global(mesh, state, shape,
                                 fem::Scheme::kSemiImplicit)) {}
  fem::Mesh mesh;
  fem::State state;
  fem::ShapeTable shape;
  fem::GlobalSystem sys;
};

TEST(SolverFem, MomentumOperatorIsSolvable) {
  System s;
  ASSERT_TRUE(s.sys.has_matrix);
  const int n = s.sys.matrix.rows();
  // manufactured solution
  std::vector<double> xref(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    xref[static_cast<std::size_t>(i)] = std::sin(0.37 * i) + 0.2;
  }
  std::vector<double> b(static_cast<std::size_t>(n));
  s.sys.matrix.spmv(xref, b);
  std::vector<double> x(static_cast<std::size_t>(n), 0.0);
  const auto rep = solver::bicgstab(s.sys.matrix, b, x,
                                    {.max_iterations = 500,
                                     .rel_tolerance = 1e-11,
                                     .precond = {}});
  ASSERT_TRUE(rep.converged) << "res=" << rep.residual;
  for (int i = 0; i < n; ++i) {
    EXPECT_NEAR(x[static_cast<std::size_t>(i)],
                xref[static_cast<std::size_t>(i)], 1e-7);
  }
}

TEST(SolverFem, JacobiPreconditioningReducesIterations) {
  System s;
  const int n = s.sys.matrix.rows();
  std::vector<double> b(static_cast<std::size_t>(n), 1.0);
  std::vector<double> x1(static_cast<std::size_t>(n), 0.0);
  std::vector<double> x2(static_cast<std::size_t>(n), 0.0);
  const auto plain = solver::bicgstab(
      s.sys.matrix, b, x1,
      {.max_iterations = 2000, .rel_tolerance = 1e-10,
       .precond = {.kind = solver::PrecondKind::kNone}});
  const auto precond = solver::bicgstab(
      s.sys.matrix, b, x2,
      {.max_iterations = 2000, .rel_tolerance = 1e-10,
       .precond = {}});
  ASSERT_TRUE(plain.converged);
  ASSERT_TRUE(precond.converged);
  EXPECT_LE(precond.iterations, plain.iterations);
}

TEST(SolverFem, OperatorIsDiagonallyDominantEnoughForJacobi) {
  // the ρ/Δt mass term keeps the diagonal strong — Jacobi must be valid
  System s;
  EXPECT_NO_THROW(solver::jacobi_inverse_diagonal(s.sys.matrix));
  for (int r = 0; r < s.sys.matrix.rows(); ++r) {
    EXPECT_GT(s.sys.matrix.at(r, r), 0.0);
  }
}

TEST(SolverFem, ShrinkingDtScalesTheMassTerm) {
  // K = (ρ/Δt)·M + C + V: halving Δt must grow every diagonal entry by
  // (close to) the mass contribution's share — and never shrink it.
  const fem::Mesh mesh({.nx = 3, .ny = 3, .nz = 3});
  const fem::ShapeTable shape;
  std::vector<double> diag_small;
  std::vector<double> diag_large;
  for (double dt : {0.01, 1.0}) {
    fem::Physics phys;
    phys.dt = dt;
    const fem::State state(mesh, phys);
    const auto sys =
        fem::assemble_global(mesh, state, shape, fem::Scheme::kSemiImplicit);
    auto& dst = dt == 0.01 ? diag_small : diag_large;
    for (int r = 0; r < sys.matrix.rows(); ++r) {
      dst.push_back(sys.matrix.at(r, r));
    }
  }
  ASSERT_EQ(diag_small.size(), diag_large.size());
  for (std::size_t r = 0; r < diag_small.size(); ++r) {
    EXPECT_GT(diag_small[r], diag_large[r]) << "row " << r;
  }
}

TEST(SolverFem, ExplicitRhsIsBoundedByData) {
  // basic stability: the explicit residual stays finite and scales with
  // the field magnitude
  System s;
  const auto r1 = fem::assemble_global(s.mesh, s.state, s.shape,
                                       fem::Scheme::kExplicit);
  double norm = 0.0;
  for (double v : r1.rhs) norm = std::max(norm, std::fabs(v));
  EXPECT_TRUE(std::isfinite(norm));
  EXPECT_GT(norm, 0.0);
  EXPECT_LT(norm, 1e3);
}

}  // namespace
