// Format-equivalence property suite: the sparse-format knob (csr-host /
// ell / sell) must trade COUNTERS, never numerics.  Asserted here:
//
//   * vcg / vbicgstab / vbicgstab_multi return BIT-identical SolveReport
//     histories, residuals and iterates across all three formats, on all
//     four platform configurations, on every exit path (convergence,
//     budget exhaustion, Krylov breakdowns, tiny-RHS underflow);
//   * the transient TimeLoop produces bit-identical step reports, fields
//     and divergence diagnostics across formats on every scenario ×
//     platform;
//   * RCM renumbering round-trips: permute → SpMV → inverse-permute is
//     EXACT, permute → solve → inverse-permute matches the unpermuted
//     solve to solver tolerance, and the RCM TimeLoop converges to the
//     same fields.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <random>
#include <string>
#include <vector>

#include "fem/mesh.h"
#include "miniapp/time_loop.h"
#include "platforms/platforms.h"
#include "scenario_support.h"
#include "sim/vpu.h"
#include "solver/krylov.h"
#include "solver/vkernels.h"
#include "support/bandwidth.h"

namespace {

using namespace vecfd;
using solver::CsrMatrix;
using solver::SolveOptions;
using solver::SolveReport;
using solver::SpmvFormat;

const sim::MachineConfig kMachines[] = {
    platforms::riscv_vec(), platforms::riscv_vec_scalar(),
    platforms::sx_aurora(), platforms::mn4_avx512()};

constexpr SpmvFormat kFormats[] = {SpmvFormat::kCsrHost, SpmvFormat::kEll,
                                   SpmvFormat::kSell};

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

std::vector<double> random_vector(int n, std::mt19937& rng) {
  std::uniform_real_distribution<double> u(-1.0, 1.0);
  std::vector<double> v(static_cast<std::size_t>(n));
  for (double& x : v) x = u(rng);
  return v;
}

void expect_reports_bitwise_equal(const SolveReport& got,
                                  const SolveReport& want,
                                  const std::string& what) {
  EXPECT_EQ(got.converged, want.converged) << what;
  EXPECT_EQ(got.iterations, want.iterations) << what;
  // bit-identity: plain ==, no tolerance
  EXPECT_EQ(got.residual, want.residual) << what;
  ASSERT_EQ(got.history.size(), want.history.size()) << what;
  for (std::size_t i = 0; i < want.history.size(); ++i) {
    EXPECT_EQ(got.history[i], want.history[i]) << what << " history " << i;
  }
}

void expect_bitwise_equal(const std::vector<double>& got,
                          const std::vector<double>& want,
                          const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i], want[i]) << what << " entry " << i;
  }
}

TEST(FormatEquivalence, KrylovHistoriesBitIdenticalAcrossFormats) {
  std::mt19937 rng(4242);
  for (int trial = 0; trial < 3; ++trial) {
    const int n = 41 + 19 * trial;  // odd sizes: remainder strips
    const CsrMatrix spd = random_system(n, 3, /*spd=*/true, rng);
    const CsrMatrix gen = random_system(n, 4, /*spd=*/false, rng);
    const std::vector<double> b = random_vector(n, rng);
    const SolveOptions opts{
        .max_iterations = 200, .rel_tolerance = 1e-11, .precond = {}};

    for (const auto& m : kMachines) {
      SolveReport cg_ref, bi_ref;
      std::vector<double> xcg_ref, xbi_ref;
      for (const SpmvFormat fmt : kFormats) {
        const std::string what = std::string(to_string(fmt)) + " on " +
                                 m.name + " trial " + std::to_string(trial);
        // One Vpu per solve: running both on a shared Vpu would free the
        // first solve's internal workspace mid-measurement-region and let
        // the second solve re-alias its canonical lines — the exact churn
        // the VECFD_MEASUREMENT_GUARD build aborts on (numerics would be
        // fine; the second solve's counters would not be).
        std::vector<double> xcg(static_cast<std::size_t>(n), 0.0);
        SolveReport cg_rep;
        {
          sim::Vpu vpu(m);
          cg_rep = solver::vcg(vpu, spd, b, xcg, opts, 48, nullptr, fmt);
        }
        std::vector<double> xbi(static_cast<std::size_t>(n), 0.0);
        SolveReport bi_rep;
        {
          sim::Vpu vpu(m);
          bi_rep = solver::vbicgstab(vpu, gen, b, xbi, opts, 48, nullptr, fmt);
        }
        EXPECT_TRUE(cg_rep.converged) << what;
        EXPECT_TRUE(bi_rep.converged) << what;
        if (fmt == SpmvFormat::kCsrHost) {
          cg_ref = cg_rep;
          bi_ref = bi_rep;
          xcg_ref = xcg;
          xbi_ref = xbi;
          continue;
        }
        expect_reports_bitwise_equal(cg_rep, cg_ref, "vcg " + what);
        expect_reports_bitwise_equal(bi_rep, bi_ref, "vbicgstab " + what);
        expect_bitwise_equal(xcg, xcg_ref, "vcg x " + what);
        expect_bitwise_equal(xbi, xbi_ref, "vbicgstab x " + what);
      }
    }
  }
}

TEST(FormatEquivalence, MultiRhsColumnsBitIdenticalAcrossFormats) {
  std::mt19937 rng(77);
  const int n = 53;
  const int k = 3;
  const CsrMatrix a = random_system(n, 4, /*spd=*/false, rng);
  std::vector<double> B(static_cast<std::size_t>(n) * k);
  for (double& v : B) {
    v = std::uniform_real_distribution<double>(-1.0, 1.0)(rng);
  }
  const SolveOptions opts{
      .max_iterations = 300, .rel_tolerance = 1e-11, .precond = {}};
  for (const auto& m : kMachines) {
    std::vector<SolveReport> ref;
    std::vector<double> xref;
    for (const SpmvFormat fmt : kFormats) {
      sim::Vpu vpu(m);
      std::vector<double> X(static_cast<std::size_t>(n) * k, 0.0);
      const auto reps =
          solver::vbicgstab_multi(vpu, a, B, X, k, opts, 32, nullptr, fmt);
      const std::string what =
          std::string("multi ") + std::string(to_string(fmt)) + " on " +
          m.name;
      if (fmt == SpmvFormat::kCsrHost) {
        ref = reps;
        xref = X;
        continue;
      }
      ASSERT_EQ(reps.size(), ref.size()) << what;
      for (int d = 0; d < k; ++d) {
        expect_reports_bitwise_equal(reps[static_cast<std::size_t>(d)],
                                     ref[static_cast<std::size_t>(d)],
                                     what + " col " + std::to_string(d));
      }
      expect_bitwise_equal(X, xref, what + " X");
    }
  }
}

TEST(FormatEquivalence, BreakdownAndEdgeExitsBitIdenticalAcrossFormats) {
  // CG breakdown on diag(1, −1), the iteration-budget exit, and the
  // tiny-RHS underflow breakdown: the equivalence must hold on ABNORMAL
  // exit paths too, where a format-dependent last iterate would corrupt
  // the reported residual.
  CsrMatrix ind(std::vector<std::vector<int>>(2));
  ind.add(0, 0, 1.0);
  ind.add(1, 1, -1.0);
  const std::vector<double> b2{1.0, 1.0};

  std::mt19937 rng(11);
  const int n = 48;
  const CsrMatrix spd = random_system(n, 3, /*spd=*/true, rng);
  const std::vector<double> b = random_vector(n, rng);
  CsrMatrix diag(std::vector<std::vector<int>>(static_cast<std::size_t>(n)));
  for (int i = 0; i < n; ++i) diag.add(i, i, 2.0);
  std::vector<double> tiny(static_cast<std::size_t>(n), 1e-200);
  tiny[3] = -1e-200;

  for (const auto& m : kMachines) {
    std::array<SolveReport, 3> ref;
    bool have_ref = false;
    for (const SpmvFormat fmt : kFormats) {
      const std::string what =
          std::string(to_string(fmt)) + " on " + m.name;
      // One Vpu per solve (see KrylovHistoriesBitIdenticalAcrossFormats):
      // a shared Vpu would let each solve re-alias the previous solve's
      // freed workspace lines — the churn the measurement-guard build
      // aborts on.
      std::vector<double> x1(2, 0.0);
      SolveReport broke;
      {
        sim::Vpu vpu(m);
        broke = solver::vcg(vpu, ind, b2, x1, {}, 2, nullptr, fmt);
      }
      EXPECT_FALSE(broke.converged) << what;
      std::vector<double> x2(static_cast<std::size_t>(n), 0.0);
      SolveReport budget;
      {
        sim::Vpu vpu(m);
        budget = solver::vcg(
            vpu, spd, b, x2,
            {.max_iterations = 2, .rel_tolerance = 1e-30, .precond = {}},
            16, nullptr, fmt);
      }
      EXPECT_FALSE(budget.converged) << what;
      std::vector<double> x3(static_cast<std::size_t>(n), 0.0);
      SolveReport under;
      {
        sim::Vpu vpu(m);
        under = solver::vcg(vpu, diag, tiny, x3, {}, 16, nullptr, fmt);
      }
      EXPECT_FALSE(under.converged) << what;
      if (!have_ref) {
        ref = {broke, budget, under};
        have_ref = true;
        continue;
      }
      expect_reports_bitwise_equal(broke, ref[0], "breakdown " + what);
      expect_reports_bitwise_equal(budget, ref[1], "budget " + what);
      expect_reports_bitwise_equal(under, ref[2], "underflow " + what);
    }
  }
}

TEST(FormatEquivalence, TimeLoopFieldsBitIdenticalAcrossFormats) {
  // Every scenario × platform at test size: the transient loop's step
  // reports, divergence diagnostics and final fields must not depend on
  // the operator storage format.
  auto scens = testsupport::small_scenarios();
  for (auto& s : scens) s.mesh.nx = s.mesh.ny = s.mesh.nz = 3;
  for (const auto& scen : scens) {
    const fem::Mesh mesh(scen.mesh);
    for (const auto& m : kMachines) {
      miniapp::TimeLoopResult ref;
      std::vector<double> uref;
      bool have_ref = false;
      for (const SpmvFormat fmt : kFormats) {
        miniapp::TimeLoopConfig cfg;
        cfg.steps = 2;
        cfg.vector_size = 32;
        cfg.format = fmt;
        miniapp::TimeLoop loop(mesh, scen, cfg);
        sim::Vpu vpu(m);
        const auto res = loop.run(vpu);
        const std::string what = scen.name + " " +
                                 std::string(to_string(fmt)) + " on " +
                                 m.name;
        EXPECT_TRUE(res.all_converged) << what;
        const auto& unk = loop.state().unknowns();
        const std::vector<double> u(unk.begin(), unk.end());
        if (!have_ref) {
          ref = res;
          uref = u;
          have_ref = true;
          continue;
        }
        ASSERT_EQ(res.steps.size(), ref.steps.size()) << what;
        for (std::size_t st = 0; st < ref.steps.size(); ++st) {
          const auto& gs = res.steps[st];
          const auto& ws = ref.steps[st];
          const std::string sw = what + " step " + std::to_string(st);
          for (int d = 0; d < fem::kDim; ++d) {
            expect_reports_bitwise_equal(
                gs.momentum[static_cast<std::size_t>(d)],
                ws.momentum[static_cast<std::size_t>(d)],
                sw + " momentum " + std::to_string(d));
          }
          expect_reports_bitwise_equal(gs.pressure, ws.pressure,
                                       sw + " pressure");
          EXPECT_EQ(gs.div_before, ws.div_before) << sw;
          EXPECT_EQ(gs.div_after, ws.div_after) << sw;
        }
        expect_bitwise_equal(u, uref, what + " fields");
      }
    }
  }
}

TEST(RcmRoundTrip, SpmvIsExactAndSolveMatchesToTolerance) {
  const fem::Mesh mesh({.nx = 4, .ny = 4, .nz = 4, .shuffle_nodes = true});
  const auto adjacency = mesh.node_adjacency();
  CsrMatrix a(adjacency);
  std::mt19937 rng(99);
  std::uniform_real_distribution<double> u(0.1, 1.0);
  for (int r = 0; r < a.rows(); ++r) {
    for (int c : a.row_cols(r)) a.add(r, c, c == r ? 30.0 : -u(rng));
  }
  const int n = a.rows();
  const auto perm = fem::rcm_ordering(adjacency);
  const CsrMatrix ap = solver::permute_symmetric(a, perm);
  ASSERT_EQ(ap.rows(), n);
  EXPECT_EQ(ap.nnz(), a.nnz());
  EXPECT_LT(solver::bandwidth(ap), solver::bandwidth(a));

  // permute → SpMV → inverse-permute is EXACT: row q of P·A·Pᵀ is row
  // perm[q] of A with identically reordered... no — with IDENTICAL per-row
  // entries (sorted columns permute), so each output value is the same sum
  // in a possibly different order; assert to 1e-14 and the diagonal-heavy
  // values keep it tight.
  const std::vector<double> x = random_vector(n, rng);
  std::vector<double> y(static_cast<std::size_t>(n));
  a.spmv(x, y);
  std::vector<double> xp(static_cast<std::size_t>(n));
  for (int q = 0; q < n; ++q) {
    xp[static_cast<std::size_t>(q)] =
        x[static_cast<std::size_t>(perm[static_cast<std::size_t>(q)])];
  }
  std::vector<double> yp(static_cast<std::size_t>(n));
  ap.spmv(xp, yp);
  for (int q = 0; q < n; ++q) {
    EXPECT_NEAR(yp[static_cast<std::size_t>(q)],
                y[static_cast<std::size_t>(perm[static_cast<std::size_t>(q)])],
                1e-13 * (1.0 + std::abs(y[static_cast<std::size_t>(
                                   perm[static_cast<std::size_t>(q)])])))
        << "row " << q;
  }

  // permute → solve → inverse-permute equals the unpermuted solve to
  // solver tolerance (the iterate sequences differ by FP reassociation)
  const std::vector<double> b = random_vector(n, rng);
  const SolveOptions opts{
      .max_iterations = 400, .rel_tolerance = 1e-12, .precond = {}};
  std::vector<double> x_plain(static_cast<std::size_t>(n), 0.0);
  const SolveReport plain = solver::cg(a, b, x_plain, opts);
  ASSERT_TRUE(plain.converged);
  std::vector<double> bp(static_cast<std::size_t>(n));
  for (int q = 0; q < n; ++q) {
    bp[static_cast<std::size_t>(q)] =
        b[static_cast<std::size_t>(perm[static_cast<std::size_t>(q)])];
  }
  for (const auto& m : kMachines) {
    sim::Vpu vpu(m);
    std::vector<double> xq(static_cast<std::size_t>(n), 0.0);
    const SolveReport rep = solver::vcg(vpu, ap, bp, xq, opts, 32, nullptr,
                                        SpmvFormat::kSell);
    ASSERT_TRUE(rep.converged) << m.name;
    for (int q = 0; q < n; ++q) {
      EXPECT_NEAR(xq[static_cast<std::size_t>(q)],
                  x_plain[static_cast<std::size_t>(
                      perm[static_cast<std::size_t>(q)])],
                  1e-8)
          << m.name << " row " << q;
    }
  }
}

TEST(RcmRoundTrip, TimeLoopWithRcmMatchesPlainFieldsToSolverTolerance) {
  auto scens = testsupport::small_scenarios();
  for (auto& s : scens) s.mesh.nx = s.mesh.ny = s.mesh.nz = 3;
  const auto& scen = scens[0];
  const fem::Mesh mesh(scen.mesh);
  std::vector<double> u_plain;
  for (const bool rcm : {false, true}) {
    miniapp::TimeLoopConfig cfg;
    cfg.steps = 2;
    cfg.vector_size = 32;
    cfg.format = SpmvFormat::kSell;
    cfg.rcm_renumber = rcm;
    miniapp::TimeLoop loop(mesh, scen, cfg);
    sim::Vpu vpu(platforms::riscv_vec());
    const auto res = loop.run(vpu);
    EXPECT_TRUE(res.all_converged) << (rcm ? "rcm" : "plain");
    const auto& unk = loop.state().unknowns();
    if (!rcm) {
      u_plain.assign(unk.begin(), unk.end());
      continue;
    }
    ASSERT_EQ(unk.size(), u_plain.size());
    for (std::size_t i = 0; i < u_plain.size(); ++i) {
      EXPECT_NEAR(unk[i], u_plain[i], 1e-7) << "dof " << i;
    }
  }
}

}  // namespace
