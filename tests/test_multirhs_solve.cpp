// The multi-RHS block solve contract (solver/vkernels.h, DESIGN.md §5):
// per-column results of the blocked kernels and of bicgstab_multi /
// vbicgstab_multi are bit-for-bit those of the single-RHS path, the shared
// operator slabs make the blocked SpMV issue fewer unit loads for the same
// gathers, converged/broken-down columns freeze exactly where a standalone
// solve would leave them, and the transient TimeLoop produces identical
// fields under blocked_momentum = true / false on every scenario.
#include <gtest/gtest.h>

#include <cmath>
#include <random>
#include <vector>

#include "miniapp/time_loop.h"
#include "platforms/platforms.h"
#include "scenario_support.h"
#include "solver/krylov.h"
#include "solver/vkernels.h"

namespace {

using namespace vecfd;
using testsupport::small_scenarios;
using solver::CsrMatrix;
using solver::EllMatrix;
using solver::SolveOptions;
using solver::SolveReport;

const sim::MachineConfig kMachines[] = {
    platforms::riscv_vec(), platforms::riscv_vec_scalar(),
    platforms::sx_aurora(), platforms::mn4_avx512()};

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
    a.add(r, r, rowsum[static_cast<std::size_t>(r)] + 0.5 + 0.1 * (r % 7));
  }
  return a;
}

std::vector<double> random_block(int n, int k, unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> u(-1.0, 1.0);
  std::vector<double> v(static_cast<std::size_t>(n) *
                        static_cast<std::size_t>(k));
  for (double& x : v) x = u(rng);
  return v;
}

std::vector<double> column(const std::vector<double>& blk, int n, int d) {
  const auto off = static_cast<std::ptrdiff_t>(d) * n;
  return {blk.begin() + off, blk.begin() + off + n};
}

/// All k columns at once.  A reference Vpu that runs column after column
/// needs every column it touched alive until it is done: a column freed
/// mid-measurement and re-allocated at the same address would alias its
/// canonical lines (DESIGN.md §1; the measurement-guard build aborts).
std::vector<std::vector<double>> columns(const std::vector<double>& blk,
                                         int n, int k) {
  std::vector<std::vector<double>> cols;
  for (int d = 0; d < k; ++d) cols.push_back(column(blk, n, d));
  return cols;
}

TEST(MultiRhsKernels, SpmvMatchesSinglePerColumnAndSharesSlabs) {
  const int n = 97;  // odd: remainder strips
  const int k = 3;
  std::mt19937 rng(7);
  const CsrMatrix a = random_system(n, 4, /*spd=*/false, rng);
  const EllMatrix ell(a);
  const std::vector<double> X = random_block(n, k, 11);
  std::vector<double> Y(static_cast<std::size_t>(n) * k, 0.0);

  sim::Vpu vpu_multi(platforms::riscv_vec());
  solver::vspmv_multi(vpu_multi, ell, X, Y, k, 64);

  sim::Vpu vpu_single(platforms::riscv_vec());
  std::vector<double> y(static_cast<std::size_t>(n));
  const auto xs = columns(X, n, k);
  for (int d = 0; d < k; ++d) {
    const std::vector<double>& xd = xs[static_cast<std::size_t>(d)];
    solver::vspmv(vpu_single, ell, xd, y, 64);
    for (int i = 0; i < n; ++i) {
      EXPECT_EQ(Y[static_cast<std::size_t>(d) * n + i], y[i])
          << "col " << d << " row " << i;  // bit-for-bit
    }
  }
  // same gather streams, k× fewer value/index slab loads (plus k stores)
  EXPECT_EQ(vpu_multi.counters().vmem_indexed_instrs,
            vpu_single.counters().vmem_indexed_instrs);
  const auto strips = static_cast<std::uint64_t>((n + 63) / 64);
  const auto width = static_cast<std::uint64_t>(ell.width());
  EXPECT_EQ(vpu_multi.counters().vmem_unit_instrs,
            2 * width * strips + k * strips);  // shared slabs + k stores
  EXPECT_EQ(vpu_single.counters().vmem_unit_instrs,
            k * (2 * width * strips + strips));
}

TEST(MultiRhsKernels, Blas1MatchesSinglePerColumn) {
  const int n = 83;
  const int k = 3;
  const std::vector<double> A = random_block(n, k, 1);
  const std::vector<double> B = random_block(n, k, 2);
  const std::vector<double> alpha{0.75, -0.5, 1.25};

  sim::Vpu vpu(platforms::riscv_vec());
  std::vector<double> dots(k, 0.0);
  solver::vdot_multi(vpu, A, B, k, dots, 32);
  std::vector<double> Y = B;
  solver::vaxpy_multi(vpu, alpha, A, Y, k, 32);
  std::vector<double> D(A.size());
  solver::vsub_multi(vpu, A, B, D, k, 32);
  std::vector<double> C(A.size(), 0.0);
  solver::vcopy_multi(vpu, A, C, k, 32);

  sim::Vpu ref(platforms::riscv_vec());
  const auto as = columns(A, n, k);
  const auto bs = columns(B, n, k);
  auto ys = bs;
  for (int d = 0; d < k; ++d) {
    const std::vector<double>& ad = as[static_cast<std::size_t>(d)];
    const std::vector<double>& bd = bs[static_cast<std::size_t>(d)];
    EXPECT_EQ(dots[static_cast<std::size_t>(d)], solver::vdot(ref, ad, bd, 32))
        << d;
    std::vector<double>& yd = ys[static_cast<std::size_t>(d)];
    solver::vaxpy(ref, alpha[static_cast<std::size_t>(d)], ad, yd, 32);
    for (int i = 0; i < n; ++i) {
      EXPECT_EQ(Y[static_cast<std::size_t>(d) * n + i], yd[i]) << d;
      EXPECT_EQ(D[static_cast<std::size_t>(d) * n + i], ad[i] - bd[i]) << d;
      EXPECT_EQ(C[static_cast<std::size_t>(d) * n + i], ad[i]) << d;
    }
  }
}

TEST(MultiRhsKernels, SpmvTakesShardLocalColumnBlocks) {
  // A shard's operator keeps rows [10, 30) of a 40-row system with its
  // columns renumbered into a local range wider than the row count (owned
  // + ghosts); the blocked SpMV streams k x-columns of that local width.
  const int n = 40;
  std::mt19937 rng(12);
  const CsrMatrix a = random_system(n, 3, /*spd=*/false, rng);
  EllMatrix local;
  local.assign(a, 10, 30, n, [](int c) { return (c + 7) % 40; });
  ASSERT_EQ(local.rows(), 20);
  ASSERT_EQ(local.num_cols(), n);
  const int k = 2;
  const std::vector<double> X = random_block(n, k, 31);
  std::vector<double> Y(static_cast<std::size_t>(local.rows()) * k, 0.0);

  sim::Vpu vpu(platforms::riscv_vec());
  solver::vspmv_multi(vpu, local, X, Y, k, 16);
  sim::Vpu ref(platforms::riscv_vec());
  std::vector<double> y(static_cast<std::size_t>(local.rows()));
  const auto xs = columns(X, n, k);
  for (int d = 0; d < k; ++d) {
    solver::vspmv(ref, local, xs[static_cast<std::size_t>(d)], y, 16);
    for (int i = 0; i < local.rows(); ++i) {
      EXPECT_EQ(Y[static_cast<std::size_t>(d * local.rows() + i)], y[i])
          << "col " << d << " row " << i;
    }
  }
  // x columns of the row count instead of the local column count
  std::vector<double> short_x(static_cast<std::size_t>(local.rows()) * k);
  EXPECT_THROW(solver::vspmv_multi(vpu, local, short_x, Y, k, 16),
               std::invalid_argument);
}

TEST(MultiRhsKernels, InactiveColumnsAreNeverTouched) {
  const int n = 40;
  const int k = 3;
  std::mt19937 rng(5);
  const CsrMatrix a = random_system(n, 3, /*spd=*/true, rng);
  const EllMatrix ell(a);
  const std::vector<double> X = random_block(n, k, 21);
  const double sentinel = -777.25;
  std::vector<double> Y(static_cast<std::size_t>(n) * k, sentinel);
  const std::vector<char> active{1, 0, 1};

  sim::Vpu vpu(platforms::riscv_vec());
  solver::vspmv_multi(vpu, ell, X, Y, k, 16, active);
  std::vector<double> dots(k, sentinel);
  solver::vdot_multi(vpu, X, X, k, dots, 16, active);
  for (int i = 0; i < n; ++i) {
    EXPECT_EQ(Y[static_cast<std::size_t>(n) + i], sentinel) << i;
  }
  EXPECT_EQ(dots[1], sentinel);
  EXPECT_NE(dots[0], sentinel);
}

TEST(MultiRhsKernels, DimensionMismatchesThrow) {
  sim::Vpu vpu(platforms::riscv_vec());
  std::mt19937 rng(3);
  const CsrMatrix a = random_system(10, 2, true, rng);
  const EllMatrix ell(a);
  std::vector<double> good(30, 0.0), bad(29, 0.0), out(3, 0.0);
  EXPECT_THROW(solver::vspmv_multi(vpu, ell, bad, bad, 3),
               std::invalid_argument);
  EXPECT_THROW(solver::vspmv_multi(vpu, ell, good, good, 0),
               std::invalid_argument);
  EXPECT_THROW(solver::vdot_multi(vpu, good, bad, 3, out),
               std::invalid_argument);
  std::vector<char> short_mask{1, 0};
  EXPECT_THROW(solver::vcopy_multi(vpu, good, good, 3, 8, short_mask),
               std::invalid_argument);
  std::vector<double> xblk(30, 0.0);
  EXPECT_THROW(solver::vbicgstab_multi(vpu, a, bad, xblk, 3),
               std::invalid_argument);
  EXPECT_THROW(solver::bicgstab_multi(a, bad, xblk, 3),
               std::invalid_argument);
}

TEST(MultiRhsSolvers, HostMultiMatchesHostSinglePerColumn) {
  std::mt19937 rng(90);
  const int n = 61;
  const int k = 3;
  const CsrMatrix a = random_system(n, 4, /*spd=*/false, rng);
  const std::vector<double> B = random_block(n, k, 13);
  const SolveOptions opts{
      .max_iterations = 300, .rel_tolerance = 1e-11, .precond = {}};

  std::vector<double> X(B.size(), 0.0);
  const auto reps = solver::bicgstab_multi(a, B, X, k, opts);
  ASSERT_EQ(reps.size(), 3u);
  for (int d = 0; d < k; ++d) {
    const std::vector<double> bd = column(B, n, d);
    std::vector<double> xd(static_cast<std::size_t>(n), 0.0);
    const SolveReport ref = solver::bicgstab(a, bd, xd, opts);
    const SolveReport& got = reps[static_cast<std::size_t>(d)];
    EXPECT_EQ(got.converged, ref.converged) << d;
    EXPECT_EQ(got.iterations, ref.iterations) << d;
    EXPECT_EQ(got.history, ref.history) << d;  // bit-for-bit recurrence
    for (int i = 0; i < n; ++i) {
      EXPECT_EQ(X[static_cast<std::size_t>(d) * n + i], xd[i])
          << "col " << d << " entry " << i;
    }
  }
}

TEST(MultiRhsSolvers, VpuMultiMatchesVpuSinglePerColumnOnAllPlatforms) {
  std::mt19937 rng(41);
  const int n = 53;
  const int k = 3;
  const CsrMatrix a = random_system(n, 4, /*spd=*/false, rng);
  const std::vector<double> B = random_block(n, k, 17);
  const SolveOptions opts{
      .max_iterations = 300, .rel_tolerance = 1e-11, .precond = {}};

  for (const auto& m : kMachines) {
    sim::Vpu vpu(m);
    std::vector<double> X(B.size(), 0.0);
    const auto reps = solver::vbicgstab_multi(vpu, a, B, X, k, opts, 48);
    for (int d = 0; d < k; ++d) {
      sim::Vpu ref_vpu(m);
      const std::vector<double> bd = column(B, n, d);
      std::vector<double> xd(static_cast<std::size_t>(n), 0.0);
      const SolveReport ref = solver::vbicgstab(ref_vpu, a, bd, xd, opts, 48);
      const SolveReport& got = reps[static_cast<std::size_t>(d)];
      const std::string what =
          std::string("col ") + std::to_string(d) + " on " + m.name;
      EXPECT_EQ(got.converged, ref.converged) << what;
      EXPECT_EQ(got.iterations, ref.iterations) << what;
      EXPECT_EQ(got.history, ref.history) << what;
      for (int i = 0; i < n; ++i) {
        EXPECT_EQ(X[static_cast<std::size_t>(d) * n + i], xd[i]) << what;
      }
    }
  }
}

TEST(MultiRhsSolvers, PerColumnBreakdownLifecycleMatchesStandalone) {
  // diag(1, -1), no preconditioner: b = (1, 1) hits the r₀·v = 0 breakdown
  // immediately, b = (1, 0) decouples and converges — in one block the two
  // columns must retire independently with exactly their standalone
  // reports, and the broken column's iterate must stay frozen.
  CsrMatrix a(std::vector<std::vector<int>>(2));
  a.add(0, 0, 1.0);
  a.add(1, 1, -1.0);
  const SolveOptions opts{.max_iterations = 50,
                          .rel_tolerance = 1e-10,
                          .jacobi_precondition = false, .precond = {}};
  const std::vector<double> B{1.0, 1.0, 1.0, 0.0};  // cols (1,1) and (1,0)

  for (const auto& m : kMachines) {
    sim::Vpu vpu(m);
    std::vector<double> X(4, 0.0);
    const auto reps = solver::vbicgstab_multi(vpu, a, B, X, 2, opts, 2);
    for (int d = 0; d < 2; ++d) {
      sim::Vpu ref_vpu(m);
      const std::vector<double> bd{B[static_cast<std::size_t>(d) * 2],
                                   B[static_cast<std::size_t>(d) * 2 + 1]};
      std::vector<double> xd(2, 0.0);
      const SolveReport ref = solver::vbicgstab(ref_vpu, a, bd, xd, opts, 2);
      const std::string what =
          std::string("col ") + std::to_string(d) + " on " + m.name;
      EXPECT_EQ(reps[static_cast<std::size_t>(d)].converged, ref.converged)
          << what;
      EXPECT_EQ(reps[static_cast<std::size_t>(d)].iterations, ref.iterations)
          << what;
      EXPECT_DOUBLE_EQ(reps[static_cast<std::size_t>(d)].residual,
                       ref.residual)
          << what;
      EXPECT_EQ(X[static_cast<std::size_t>(d) * 2], xd[0]) << what;
      EXPECT_EQ(X[static_cast<std::size_t>(d) * 2 + 1], xd[1]) << what;
    }
    EXPECT_FALSE(reps[0].converged) << m.name;  // the breakdown column
    EXPECT_TRUE(reps[1].converged) << m.name;   // the decoupled column
  }
}

TEST(MultiRhsSolvers, ZeroColumnsRetireWithoutWork) {
  std::mt19937 rng(8);
  const int n = 24;
  const CsrMatrix a = random_system(n, 2, /*spd=*/false, rng);
  std::vector<double> B(static_cast<std::size_t>(n) * 2, 0.0);
  std::mt19937 rng2(9);
  for (int i = 0; i < n; ++i) {  // column 1 nonzero, column 0 all-zero
    B[static_cast<std::size_t>(n) + i] =
        std::uniform_real_distribution<double>(-1.0, 1.0)(rng2);
  }
  sim::Vpu vpu(platforms::riscv_vec());
  std::vector<double> X(B.size(), 3.0);
  const auto reps = solver::vbicgstab_multi(vpu, a, B, X, 2, {}, 16);
  EXPECT_TRUE(reps[0].converged);
  EXPECT_EQ(reps[0].iterations, 0);
  ASSERT_EQ(reps[0].history.size(), 1u);
  for (int i = 0; i < n; ++i) EXPECT_EQ(X[i], 0.0) << i;
  EXPECT_TRUE(reps[1].converged);
  EXPECT_GT(reps[1].iterations, 0);
}

TEST(MultiRhsTimeLoop, BlockedMomentumMatchesPerComponentOnAllScenarios) {
  // The acceptance bar: blocked vs per-component fields agree to <= 1e-9
  // per component on every scenario (they are in fact bit-identical — the
  // per-column recurrences are the same FP sequences), with identical
  // Krylov iteration counts and convergence flags.
  for (const miniapp::Scenario& s : small_scenarios()) {
    const fem::Mesh mesh(s.mesh);
    miniapp::TimeLoopConfig cfg;
    cfg.steps = 2;
    cfg.vector_size = 32;

    cfg.blocked_momentum = true;
    miniapp::TimeLoop blocked(mesh, s, cfg);
    sim::Vpu vpu_b(platforms::riscv_vec());
    const auto res_b = blocked.run(vpu_b);

    cfg.blocked_momentum = false;
    miniapp::TimeLoop percomp(mesh, s, cfg);
    sim::Vpu vpu_p(platforms::riscv_vec());
    const auto res_p = percomp.run(vpu_p);

    ASSERT_TRUE(res_b.all_converged) << s.name;
    ASSERT_TRUE(res_p.all_converged) << s.name;
    ASSERT_EQ(res_b.steps.size(), res_p.steps.size()) << s.name;
    for (std::size_t st = 0; st < res_b.steps.size(); ++st) {
      for (int d = 0; d < fem::kDim; ++d) {
        EXPECT_EQ(res_b.steps[st].momentum[static_cast<std::size_t>(d)]
                      .iterations,
                  res_p.steps[st].momentum[static_cast<std::size_t>(d)]
                      .iterations)
            << s.name << " step " << st << " comp " << d;
      }
      EXPECT_EQ(res_b.steps[st].pressure.iterations,
                res_p.steps[st].pressure.iterations)
          << s.name << " step " << st;
      EXPECT_DOUBLE_EQ(res_b.steps[st].div_after, res_p.steps[st].div_after)
          << s.name << " step " << st;
    }
    for (int n = 0; n < mesh.num_nodes(); ++n) {
      for (int d = 0; d < fem::kDim; ++d) {
        EXPECT_NEAR(blocked.state().velocity(n, d),
                    percomp.state().velocity(n, d), 1e-9)
            << s.name << " node " << n << " comp " << d;
      }
    }
  }
}

TEST(MultiRhsTimeLoop, BlockedSolveReducesSolvePhaseUnitLoads) {
  // The traffic claim at time-loop granularity: identical gathers, fewer
  // unit loads (the shared ELL slabs), same iteration counts.
  miniapp::Scenario s = miniapp::scenario_cavity();
  s.mesh = {.nx = 4, .ny = 4, .nz = 4, .distortion = 0.05};
  const fem::Mesh mesh(s.mesh);
  miniapp::TimeLoopConfig cfg;
  cfg.steps = 1;
  cfg.vector_size = 64;

  cfg.blocked_momentum = true;
  miniapp::TimeLoop blocked(mesh, s, cfg);
  sim::Vpu vpu_b(platforms::riscv_vec());
  const auto res_b = blocked.run(vpu_b);

  cfg.blocked_momentum = false;
  miniapp::TimeLoop percomp(mesh, s, cfg);
  sim::Vpu vpu_p(platforms::riscv_vec());
  const auto res_p = percomp.run(vpu_p);

  const auto& p9_b = res_b.phase[miniapp::kSolvePhase];
  const auto& p9_p = res_p.phase[miniapp::kSolvePhase];
  EXPECT_EQ(p9_b.vmem_indexed_instrs, p9_p.vmem_indexed_instrs);
  EXPECT_LT(p9_b.vmem_unit_instrs, p9_p.vmem_unit_instrs);
  EXPECT_LT(p9_b.total_cycles(), p9_p.total_cycles());
}

}  // namespace
