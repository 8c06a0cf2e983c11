// Property tests for the instrumented Krylov solvers: randomized SPD and
// nonsymmetric CSR systems run through vcg/vbicgstab on all four platform
// configurations (including the scalar-fallback machine) against the host
// cg/bicgstab, asserting the SolveReport residual contract of krylov.h on
// EVERY exit path — convergence, iteration-budget exhaustion and Krylov
// breakdowns: `residual` always equals the true relative residual
// ‖b − A·x‖₂/‖b‖₂ of the returned x, `history` is never left empty after
// work was done, and `converged` agrees with the tolerance.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <random>
#include <vector>

#include "platforms/platforms.h"
#include "solver/krylov.h"
#include "solver/vkernels.h"
#include "support/host_bicgstab.h"

namespace {

using namespace vecfd;
using solver::CsrMatrix;
using solver::SolveOptions;
using solver::SolveReport;

const sim::MachineConfig kMachines[] = {
    platforms::riscv_vec(), platforms::riscv_vec_scalar(),
    platforms::sx_aurora(), platforms::mn4_avx512()};

/// Random sparse matrix with a dominant diagonal: ~`extra` off-diagonal
/// entries per row, symmetric (SPD) or general (nonsingular either way).
CsrMatrix random_system(int n, int extra, bool spd, std::mt19937& rng) {
  std::uniform_int_distribution<int> col(0, n - 1);
  std::uniform_real_distribution<double> val(-1.0, 1.0);
  std::vector<std::vector<int>> adj(static_cast<std::size_t>(n));
  std::vector<std::vector<std::pair<int, double>>> entries(
      static_cast<std::size_t>(n));
  for (int r = 0; r < n; ++r) {
    for (int k = 0; k < extra; ++k) {
      const int c = col(rng);
      if (c == r) continue;
      const double v = val(rng);
      entries[static_cast<std::size_t>(r)].push_back({c, v});
      adj[static_cast<std::size_t>(r)].push_back(c);
      if (spd) {
        entries[static_cast<std::size_t>(c)].push_back({r, v});
        adj[static_cast<std::size_t>(c)].push_back(r);
      }
    }
  }
  CsrMatrix a(adj);
  std::vector<double> rowsum(static_cast<std::size_t>(n), 0.0);
  for (int r = 0; r < n; ++r) {
    for (const auto& [c, v] : entries[static_cast<std::size_t>(r)]) {
      a.add(r, c, v);
      rowsum[static_cast<std::size_t>(r)] += std::abs(v);
    }
  }
  for (int r = 0; r < n; ++r) {
    // strict diagonal dominance keeps the system nonsingular (and SPD in
    // the symmetric case); the +0.5 margin keeps Jacobi well conditioned
    a.add(r, r, rowsum[static_cast<std::size_t>(r)] + 0.5 + 0.1 * (r % 7));
  }
  return a;
}

std::vector<double> random_vector(int n, std::mt19937& rng) {
  std::uniform_real_distribution<double> u(-1.0, 1.0);
  std::vector<double> v(static_cast<std::size_t>(n));
  for (double& x : v) x = u(rng);
  return v;
}

double true_relative_residual(const CsrMatrix& a,
                              const std::vector<double>& b,
                              const std::vector<double>& x) {
  std::vector<double> ax(b.size());
  a.spmv(x, ax);
  double num = 0.0;
  double den = 0.0;
  for (std::size_t i = 0; i < b.size(); ++i) {
    num += (b[i] - ax[i]) * (b[i] - ax[i]);
    den += b[i] * b[i];
  }
  return den > 0.0 ? std::sqrt(num / den) : std::sqrt(num);
}

/// The krylov.h residual contract, checked against a recomputed residual,
/// plus the length invariant: history[0] initial + one entry per counted
/// iteration, so history.size() == iterations + 1 on EVERY exit path.
void expect_contract(const SolveReport& rep, const CsrMatrix& a,
                     const std::vector<double>& b,
                     const std::vector<double>& x, const SolveOptions& opts,
                     const std::string& what) {
  const double truth = true_relative_residual(a, b, x);
  // the report's residual is itself a float computation; compare loosely
  EXPECT_NEAR(rep.residual, truth, 1e-8 * (1.0 + truth)) << what;
  if (rep.converged) {
    EXPECT_LT(rep.residual, opts.rel_tolerance) << what;
  }
  ASSERT_EQ(rep.history.size(),
            static_cast<std::size_t>(rep.iterations) + 1u)
      << what;
  EXPECT_DOUBLE_EQ(rep.history.back(), rep.residual) << what;
}

TEST(PropertySolvers, SpdSystemsOnAllPlatforms) {
  std::mt19937 rng(1234);
  for (int trial = 0; trial < 4; ++trial) {
    const int n = 40 + 17 * trial;  // odd sizes: remainder strips
    const CsrMatrix a = random_system(n, 3, /*spd=*/true, rng);
    const std::vector<double> b = random_vector(n, rng);
    const SolveOptions opts{
        .max_iterations = 200, .rel_tolerance = 1e-11, .precond = {}};

    std::vector<double> x_host(static_cast<std::size_t>(n), 0.0);
    const SolveReport host = solver::cg(a, b, x_host, opts);
    ASSERT_TRUE(host.converged) << "trial " << trial;
    expect_contract(host, a, b, x_host, opts, "host cg");

    for (const auto& m : kMachines) {
      sim::Vpu vpu(m);
      std::vector<double> x(static_cast<std::size_t>(n), 0.0);
      const SolveReport rep = solver::vcg(vpu, a, b, x, opts, 48);
      const std::string what =
          std::string("vcg on ") + m.name + " trial " + std::to_string(trial);
      EXPECT_TRUE(rep.converged) << what;
      expect_contract(rep, a, b, x, opts, what);
      for (std::size_t i = 0; i < x.size(); ++i) {
        EXPECT_NEAR(x[i], x_host[i], 1e-7) << what << " entry " << i;
      }
      if (!m.vector_enabled) {
        EXPECT_EQ(vpu.counters().vector_instrs(), 0u) << what;
      }
    }
  }
}

TEST(PropertySolvers, NonsymmetricSystemsOnAllPlatforms) {
  std::mt19937 rng(98765);
  for (int trial = 0; trial < 4; ++trial) {
    const int n = 37 + 23 * trial;
    const CsrMatrix a = random_system(n, 4, /*spd=*/false, rng);
    const std::vector<double> b = random_vector(n, rng);
    const SolveOptions opts{
        .max_iterations = 300, .rel_tolerance = 1e-11, .precond = {}};

    std::vector<double> x_host(static_cast<std::size_t>(n), 0.0);
    const SolveReport host = solver::bicgstab(a, b, x_host, opts);
    ASSERT_TRUE(host.converged) << "trial " << trial;
    expect_contract(host, a, b, x_host, opts, "host bicgstab");

    for (const auto& m : kMachines) {
      sim::Vpu vpu(m);
      std::vector<double> x(static_cast<std::size_t>(n), 0.0);
      const SolveReport rep = solver::vbicgstab(vpu, a, b, x, opts, 64);
      const std::string what = std::string("vbicgstab on ") + m.name +
                               " trial " + std::to_string(trial);
      EXPECT_TRUE(rep.converged) << what;
      expect_contract(rep, a, b, x, opts, what);
      for (std::size_t i = 0; i < x.size(); ++i) {
        EXPECT_NEAR(x[i], x_host[i], 1e-7) << what << " entry " << i;
      }
    }
  }
}

TEST(PropertySolvers, IterationBudgetExitKeepsResidualTruthful) {
  std::mt19937 rng(555);
  const int n = 64;
  const CsrMatrix a = random_system(n, 3, /*spd=*/true, rng);
  const std::vector<double> b = random_vector(n, rng);
  // an impossible tolerance with a tiny budget forces the budget exit
  const SolveOptions opts{
      .max_iterations = 2, .rel_tolerance = 1e-30, .precond = {}};
  for (const auto& m : kMachines) {
    for (const bool use_cg : {true, false}) {
      sim::Vpu vpu(m);
      std::vector<double> x(static_cast<std::size_t>(n), 0.0);
      const SolveReport rep =
          use_cg ? solver::vcg(vpu, a, b, x, opts, 32)
                 : solver::vbicgstab(vpu, a, b, x, opts, 32);
      const std::string what = std::string(use_cg ? "vcg" : "vbicgstab") +
                               " budget exit on " + m.name;
      EXPECT_FALSE(rep.converged) << what;
      EXPECT_EQ(rep.iterations, 2) << what;
      expect_contract(rep, a, b, x, opts, what);
      EXPECT_GT(rep.residual, 0.0) << what;
    }
  }
}

TEST(PropertySolvers, BreakdownExitKeepsResidualTruthful) {
  // diag(1, -1): CG's p·Ap vanishes on the first iteration.  The reported
  // residual must be the true one, never the misleading 0/false pair.
  CsrMatrix a(std::vector<std::vector<int>>(2));
  a.add(0, 0, 1.0);
  a.add(1, 1, -1.0);
  const std::vector<double> b{1.0, 1.0};
  const SolveOptions opts;
  for (const auto& m : kMachines) {
    sim::Vpu vpu(m);
    std::vector<double> x(2, 0.0);
    const SolveReport rep = solver::vcg(vpu, a, b, x, opts, 2);
    const std::string what = std::string("vcg breakdown on ") + m.name;
    EXPECT_FALSE(rep.converged) << what;
    ASSERT_FALSE(rep.history.empty()) << what;
    expect_contract(rep, a, b, x, opts, what);
  }
}

TEST(PropertySolvers, HistoryLengthInvariantOnEveryExitPath) {
  // One report per exit class; the invariant history.size() == iterations+1
  // (and back() == residual) must hold on all of them, for host and Vpu.
  std::mt19937 rng(777);
  const int n = 48;
  const CsrMatrix a = random_system(n, 3, /*spd=*/true, rng);
  const std::vector<double> b = random_vector(n, rng);

  auto expect_invariant = [](const SolveReport& rep, const std::string& what) {
    ASSERT_EQ(rep.history.size(),
              static_cast<std::size_t>(rep.iterations) + 1u)
        << what;
    EXPECT_DOUBLE_EQ(rep.history.back(), rep.residual) << what;
  };

  // convergence exit
  std::vector<double> x1(static_cast<std::size_t>(n), 0.0);
  expect_invariant(solver::cg(a, b, x1, {}), "cg converged");
  // budget exit
  std::vector<double> x2(static_cast<std::size_t>(n), 0.0);
  expect_invariant(
      solver::cg(a, b, x2,
                 {.max_iterations = 1, .rel_tolerance = 1e-30, .precond = {}}),
      "cg budget");
  // zero-RHS exit
  std::vector<double> x3 = random_vector(n, rng);
  const std::vector<double> zero(static_cast<std::size_t>(n), 0.0);
  expect_invariant(solver::bicgstab(a, zero, x3, {}), "bicgstab zero rhs");
  // already-converged initial guess
  std::vector<double> xref = random_vector(n, rng);
  std::vector<double> bx(static_cast<std::size_t>(n));
  a.spmv(xref, bx);
  std::vector<double> x4 = xref;
  const SolveReport exact = solver::bicgstab(a, bx, x4, {});
  EXPECT_EQ(exact.iterations, 0);
  expect_invariant(exact, "bicgstab exact guess");

  // breakdown exit (cg: p·Ap = 0 on diag(1,-1)), host and every platform
  CsrMatrix ind(std::vector<std::vector<int>>(2));
  ind.add(0, 0, 1.0);
  ind.add(1, 1, -1.0);
  const std::vector<double> b2{1.0, 1.0};
  std::vector<double> x5(2, 0.0);
  const SolveReport broke = solver::cg(ind, b2, x5, {});
  EXPECT_FALSE(broke.converged);
  EXPECT_EQ(broke.iterations, 1);  // the aborted iteration is counted
  expect_invariant(broke, "cg breakdown");
  for (const auto& m : kMachines) {
    sim::Vpu vpu(m);
    std::vector<double> x(2, 0.0);
    expect_invariant(solver::vcg(vpu, ind, b2, x, {}, 2),
                     std::string("vcg breakdown on ") + m.name);
  }
}

TEST(PropertySolvers, ScaledNormHandlesExtremeMagnitudes) {
  // ‖a‖₂ via sqrt(dot(a,a)) overflows to inf for entries ≳ 1e154 and
  // underflows to 0 for entries ≲ 1e-162 — either corrupts every relative
  // residual computed from it.  The scaled norm must return the
  // analytically known value on host and on all four platforms.
  const int n = 37;
  for (const double mag : {1e160, 1e-160, 1e300, 1e-300, 1.0}) {
    std::vector<double> v(static_cast<std::size_t>(n), mag);
    v[3] = -mag;  // sign mix
    const double expect = mag * std::sqrt(static_cast<double>(n));
    EXPECT_NEAR(solver::norm2(v) / expect, 1.0, 1e-12) << "host mag " << mag;
    for (const auto& m : kMachines) {
      sim::Vpu vpu(m);
      const double got = solver::vnorm2(vpu, v, 16);
      EXPECT_NEAR(got / expect, 1.0, 1e-12) << m.name << " mag " << mag;
    }
  }
  // exact zero stays exact
  const std::vector<double> z(8, 0.0);
  EXPECT_DOUBLE_EQ(solver::norm2(z), 0.0);
  for (const auto& m : kMachines) {
    sim::Vpu vpu(m);
    EXPECT_DOUBLE_EQ(solver::vnorm2(vpu, z, 4), 0.0) << m.name;
  }
  // an inf entry yields inf (not NaN through inf/inf scaling), NaN
  // propagates instead of collapsing to a clean 0
  std::vector<double> vinf(8, 1.0);
  vinf[5] = std::numeric_limits<double>::infinity();
  std::vector<double> vnan(8, 1e200);  // scaled path with a poisoned entry
  vnan[2] = std::numeric_limits<double>::quiet_NaN();
  EXPECT_TRUE(std::isinf(solver::norm2(vinf)));
  EXPECT_TRUE(std::isnan(solver::norm2(vnan)));
  for (const auto& m : kMachines) {
    sim::Vpu vpu(m);
    EXPECT_TRUE(std::isinf(solver::vnorm2(vpu, vinf, 4))) << m.name;
    EXPECT_TRUE(std::isnan(solver::vnorm2(vpu, vnan, 4))) << m.name;
  }
}

TEST(PropertySolvers, TinyRhsNoLongerMisreportsConvergence) {
  // Regression for the norm underflow: with ‖b‖∞ ~ 1e-200 the unscaled
  // bnorm = sqrt(dot(b,b)) was exactly 0, so the solvers took the zero-RHS
  // exit and reported x = 0 as "converged, residual 0" — while the true
  // relative residual of x = 0 against this nonzero b is 1.  With the
  // scaled norm the report is truthful on every platform: the underflowing
  // dot products break the recurrence immediately, and the breakdown exit
  // carries the real residual of the returned iterate.
  const int n = 16;
  CsrMatrix a(std::vector<std::vector<int>>(static_cast<std::size_t>(n)));
  for (int i = 0; i < n; ++i) a.add(i, i, 2.0);
  std::vector<double> b(static_cast<std::size_t>(n), 1e-200);
  b[3] = -1e-200;
  const SolveOptions opts;

  std::vector<double> x_host(static_cast<std::size_t>(n), 0.0);
  const SolveReport host = solver::cg(a, b, x_host, opts);
  EXPECT_FALSE(host.converged);
  EXPECT_NEAR(host.residual, 1.0, 1e-12);
  ASSERT_EQ(host.history.size(),
            static_cast<std::size_t>(host.iterations) + 1u);

  for (const auto& m : kMachines) {
    sim::Vpu vpu(m);
    std::vector<double> x(static_cast<std::size_t>(n), 0.0);
    const SolveReport rep = solver::vcg(vpu, a, b, x, opts, 8);
    const std::string what = std::string("tiny-b vcg on ") + m.name;
    EXPECT_FALSE(rep.converged) << what;
    EXPECT_NEAR(rep.residual, 1.0, 1e-12) << what;
    ASSERT_EQ(rep.history.size(),
              static_cast<std::size_t>(rep.iterations) + 1u)
        << what;
  }
}

TEST(PropertySolvers, MultiRhsColumnsHonourTheContractOnAllPlatforms) {
  // k independent columns through the blocked solver: every column's
  // report must satisfy the same contract as a standalone solve, on every
  // exit path the columns individually take.
  std::mt19937 rng(2025);
  const int n = 45;
  const int k = 3;
  const CsrMatrix a = random_system(n, 4, /*spd=*/false, rng);
  std::vector<double> B(static_cast<std::size_t>(n) * k);
  for (double& v : B) {
    v = std::uniform_real_distribution<double>(-1.0, 1.0)(rng);
  }
  const SolveOptions opts{
      .max_iterations = 300, .rel_tolerance = 1e-11, .precond = {}};

  for (const auto& m : kMachines) {
    sim::Vpu vpu(m);
    std::vector<double> X(static_cast<std::size_t>(n) * k, 0.0);
    const auto reps = solver::vbicgstab_multi(vpu, a, B, X, k, opts, 48);
    ASSERT_EQ(reps.size(), static_cast<std::size_t>(k));
    for (int d = 0; d < k; ++d) {
      const std::size_t off = static_cast<std::size_t>(d) * n;
      const std::vector<double> bd(B.begin() + static_cast<std::ptrdiff_t>(off),
                                   B.begin() + static_cast<std::ptrdiff_t>(off + n));
      const std::vector<double> xd(X.begin() + static_cast<std::ptrdiff_t>(off),
                                   X.begin() + static_cast<std::ptrdiff_t>(off + n));
      const std::string what = std::string("multi col ") + std::to_string(d) +
                               " on " + m.name;
      EXPECT_TRUE(reps[static_cast<std::size_t>(d)].converged) << what;
      expect_contract(reps[static_cast<std::size_t>(d)], a, bd, xd, opts,
                      what);
    }
    if (!m.vector_enabled) {
      EXPECT_EQ(vpu.counters().vector_instrs(), 0u) << m.name;
    }
  }
}

TEST(PropertySolvers, ZeroRhsConvergesToZeroSolutionEverywhere) {
  std::mt19937 rng(31);
  const int n = 33;
  const CsrMatrix a = random_system(n, 2, /*spd=*/true, rng);
  const std::vector<double> b(static_cast<std::size_t>(n), 0.0);
  for (const auto& m : kMachines) {
    sim::Vpu vpu(m);
    std::vector<double> x = random_vector(n, rng);  // nonzero initial guess
    const SolveReport rep = solver::vcg(vpu, a, b, x, {}, 16);
    EXPECT_TRUE(rep.converged) << m.name;
    EXPECT_EQ(rep.iterations, 0) << m.name;
    for (double xi : x) EXPECT_DOUBLE_EQ(xi, 0.0) << m.name;
  }
}

}  // namespace
