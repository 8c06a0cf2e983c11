// Tests for the Vpu-instrumented solve kernels (solver/vkernels.h): the
// ELL mirror, SpMV/BLAS-1 golden equality against the host kernels, the
// vcg/vbicgstab golden match against cg/bicgstab, the scalar-machine
// fallback, and the long-vector AVL behaviour the co-design case rests on.
#include <gtest/gtest.h>

#include <cmath>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "metrics/metrics.h"
#include "platforms/platforms.h"
#include "solver/krylov.h"
#include "solver/vkernels.h"
#include "support/host_bicgstab.h"
#include "support/reference_assembly.h"

namespace {

using namespace vecfd;
using solver::bicgstab;
using solver::cg;
using solver::CsrMatrix;
using solver::EllMatrix;
using solver::SolveOptions;
using solver::vbicgstab;
using solver::vcg;

CsrMatrix poisson1d(int n) {
  std::vector<std::vector<int>> adj(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    if (i > 0) adj[static_cast<std::size_t>(i)].push_back(i - 1);
    if (i < n - 1) adj[static_cast<std::size_t>(i)].push_back(i + 1);
  }
  CsrMatrix a(adj);
  for (int i = 0; i < n; ++i) {
    a.add(i, i, 2.0);
    if (i > 0) a.add(i, i - 1, -1.0);
    if (i < n - 1) a.add(i, i + 1, -1.0);
  }
  return a;
}

std::vector<double> random_vector(int n, unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> u(-1.0, 1.0);
  std::vector<double> v(static_cast<std::size_t>(n));
  for (double& x : v) x = u(rng);
  return v;
}

double rel_l2_diff(const std::vector<double>& a,
                   const std::vector<double>& b) {
  double num = 0.0;
  double den = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    num += (a[i] - b[i]) * (a[i] - b[i]);
    den += b[i] * b[i];
  }
  return den > 0.0 ? std::sqrt(num / den) : std::sqrt(num);
}

/// The semi-implicit momentum operator of a small cavity mesh — the system
/// phase 9 solves.
struct FemSystem {
  FemSystem()
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

TEST(EllMatrix, MirrorsCsrWithMaskedPadding) {
  const CsrMatrix a = poisson1d(5);
  const EllMatrix e(a);
  EXPECT_EQ(e.rows(), 5);
  EXPECT_EQ(e.width(), 3);  // interior rows hold {-1, 2, -1}
  // row 0 has only 2 nonzeros: slab 2 must pad with the masked-lane
  // sentinel (column −1, 0.0) so the pad gathers nothing
  EXPECT_EQ(e.cols(2)[0], -1);
  EXPECT_DOUBLE_EQ(e.vals(2)[0], 0.0);
  // interior row 2, slab order follows the sorted CSR columns {1, 2, 3}
  EXPECT_EQ(e.cols(0)[2], 1);
  EXPECT_DOUBLE_EQ(e.vals(0)[2], -1.0);
  EXPECT_EQ(e.cols(1)[2], 2);
  EXPECT_DOUBLE_EQ(e.vals(1)[2], 2.0);
}

TEST(Vspmv, MatchesHostSpmv) {
  const CsrMatrix a = poisson1d(97);  // odd size: remainder strips
  const EllMatrix e(a);
  const std::vector<double> x = random_vector(97, 7);
  std::vector<double> y_host(97), y_vpu(97);
  a.spmv(x, y_host);

  sim::Vpu vpu(platforms::riscv_vec());
  solver::vspmv(vpu, e, x, y_vpu, 64);
  for (int i = 0; i < 97; ++i) {
    EXPECT_NEAR(y_vpu[i], y_host[i], 1e-13) << "row " << i;
  }
  // the instrumented SpMV must be the paper's indexed-load workload
  EXPECT_GT(vpu.counters().vmem_indexed_instrs, 0u);  // vgather x[cols]
  EXPECT_GT(vpu.counters().vmem_unit_instrs, 0u);     // vals/cols slabs
  EXPECT_GT(vpu.counters().flops, 0u);
}

TEST(Vblas1, MatchesHostBlas1) {
  const int n = 83;
  std::vector<double> a = random_vector(n, 1);
  std::vector<double> b = random_vector(n, 2);
  sim::Vpu vpu(platforms::riscv_vec());

  EXPECT_NEAR(solver::vdot(vpu, a, b, 32), solver::dot(a, b), 1e-12);
  EXPECT_NEAR(solver::vnorm2(vpu, a, 32), solver::norm2(a), 1e-12);

  std::vector<double> y_host = b;
  std::vector<double> y_vpu = b;
  solver::axpy(0.75, a, y_host);
  solver::vaxpy(vpu, 0.75, a, y_vpu, 32);
  for (int i = 0; i < n; ++i) EXPECT_NEAR(y_vpu[i], y_host[i], 1e-14);

  // y = x + beta·y
  std::vector<double> p_vpu = b;
  solver::vxpby(vpu, a, -0.5, p_vpu, 32);
  for (int i = 0; i < n; ++i) {
    EXPECT_NEAR(p_vpu[i], a[i] - 0.5 * b[i], 1e-14);
  }

  std::vector<double> out(n);
  solver::vsub(vpu, a, b, out, 32);
  for (int i = 0; i < n; ++i) EXPECT_NEAR(out[i], a[i] - b[i], 1e-14);

  std::vector<double> packed(n / 3);
  solver::vpack_strided(vpu, a.data(), 3, packed, 16);
  for (std::size_t i = 0; i < packed.size(); ++i) {
    EXPECT_DOUBLE_EQ(packed[i], a[3 * i]);
  }
}

TEST(Vcg, GoldenMatchAgainstHostCg) {
  const int n = 100;
  const CsrMatrix a = poisson1d(n);
  std::vector<double> xref = random_vector(n, 3);
  std::vector<double> b(n);
  a.spmv(xref, b);
  const SolveOptions opts{
      .max_iterations = 500, .rel_tolerance = 1e-12, .precond = {}};

  std::vector<double> x_host(n, 0.0);
  const auto rep_host = cg(a, b, x_host, opts);
  ASSERT_TRUE(rep_host.converged);

  sim::Vpu vpu(platforms::riscv_vec());
  std::vector<double> x_vpu(n, 0.0);
  const auto rep_vpu = vcg(vpu, a, b, x_vpu, opts, 128);
  ASSERT_TRUE(rep_vpu.converged);

  EXPECT_LE(rel_l2_diff(x_vpu, x_host), 1e-10);
  EXPECT_GT(vpu.counters().vector_instrs(), 0u);
  EXPECT_GT(vpu.counters().vmem_indexed_instrs, 0u);
}

TEST(Vbicgstab, GoldenMatchAgainstHostOnFemOperator) {
  FemSystem f;
  ASSERT_TRUE(f.sys.has_matrix);
  const int n = f.sys.matrix.rows();
  std::vector<double> xref(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    xref[static_cast<std::size_t>(i)] = std::sin(0.37 * i) + 0.2;
  }
  std::vector<double> b(static_cast<std::size_t>(n));
  f.sys.matrix.spmv(xref, b);
  const SolveOptions opts{
      .max_iterations = 500, .rel_tolerance = 1e-12, .precond = {}};

  std::vector<double> x_host(static_cast<std::size_t>(n), 0.0);
  const auto rep_host = bicgstab(f.sys.matrix, b, x_host, opts);
  ASSERT_TRUE(rep_host.converged);

  sim::Vpu vpu(platforms::riscv_vec());
  std::vector<double> x_vpu(static_cast<std::size_t>(n), 0.0);
  const auto rep_vpu = vbicgstab(vpu, f.sys.matrix, b, x_vpu, opts, 240);
  ASSERT_TRUE(rep_vpu.converged) << "res=" << rep_vpu.residual;

  EXPECT_LE(rel_l2_diff(x_vpu, x_host), 1e-10);
  // and both sit on the manufactured solution
  EXPECT_LE(rel_l2_diff(x_vpu, xref), 1e-8);
}

TEST(Vbicgstab, ArgumentErrorsNameTheCalledSolver) {
  // The single-RHS solvers are the k = 1 block of the multi-RHS ones; a
  // bad call must still be reported under the name the caller used.
  const CsrMatrix a = poisson1d(8);
  std::vector<double> b(8, 1.0), x(8, 0.0), short_x(7, 0.0);
  SolveOptions cheby;
  cheby.precond.kind = solver::PrecondKind::kCheby;
  const auto message_of = [](auto&& call) -> std::string {
    try {
      call();
    } catch (const std::invalid_argument& e) {
      return e.what();
    }
    return "no throw";
  };
  sim::Vpu vpu(platforms::riscv_vec());
  EXPECT_EQ(message_of([&] { bicgstab(a, b, short_x); }),
            "bicgstab: dimension mismatch");
  EXPECT_EQ(message_of([&] { vbicgstab(vpu, a, b, short_x); }),
            "vbicgstab: dimension mismatch");
  EXPECT_EQ(message_of([&] { solver::bicgstab_multi(a, b, short_x, 1); }),
            "bicgstab_multi: dimension mismatch");
  EXPECT_EQ(
      message_of([&] { solver::vbicgstab_multi(vpu, a, b, short_x, 1); }),
      "vbicgstab_multi: dimension mismatch");
  EXPECT_EQ(message_of([&] { bicgstab(a, b, x, cheby); })
                .rfind("bicgstab: preconditioner 'cheby'", 0),
            0u);
  EXPECT_EQ(message_of([&] { vbicgstab(vpu, a, b, x, cheby); })
                .rfind("vbicgstab: preconditioner 'cheby'", 0),
            0u);
  EXPECT_EQ(vpu.counters().total_instrs(), 0u);  // rejected before issuing
}

TEST(Vkernels, ScalarMachineFallbackComputesIdenticalValues) {
  const int n = 64;
  const CsrMatrix a = poisson1d(n);
  std::vector<double> xref = random_vector(n, 5);
  std::vector<double> b(n);
  a.spmv(xref, b);
  const SolveOptions opts{
      .max_iterations = 300, .rel_tolerance = 1e-12, .precond = {}};

  sim::Vpu vpu(platforms::riscv_vec_scalar());
  std::vector<double> x(n, 0.0);
  const auto rep = vcg(vpu, a, b, x, opts, 64);
  ASSERT_TRUE(rep.converged);

  std::vector<double> x_host(n, 0.0);
  const auto rep_host = cg(a, b, x_host, opts);
  ASSERT_TRUE(rep_host.converged);
  EXPECT_LE(rel_l2_diff(x, x_host), 1e-10);

  // a scalar-only machine must not execute a single vector instruction
  EXPECT_EQ(vpu.counters().vector_instrs(), 0u);
  EXPECT_GT(vpu.counters().total_instrs(), 0u);
}

TEST(Vkernels, BreakdownContractMatchesHost) {
  // diag(1, -1) → CG breaks down immediately; the instrumented variant
  // must honour the same truthful-residual contract as the host solver.
  CsrMatrix a(std::vector<std::vector<int>>(2));
  a.add(0, 0, 1.0);
  a.add(1, 1, -1.0);
  std::vector<double> b{1.0, 1.0};
  sim::Vpu vpu(platforms::riscv_vec());
  std::vector<double> x(2, 0.0);
  const auto rep = vcg(vpu, a, b, x);
  EXPECT_FALSE(rep.converged);
  EXPECT_NEAR(rep.residual, 1.0, 1e-14);
  ASSERT_FALSE(rep.history.empty());
}

TEST(Vkernels, AvlApproachesVlmaxWithLargeStrips) {
  // the acceptance claim: strip-mining the solve at large VECTOR_SIZE
  // drives AVL toward vlmax — the vgather SpMV exploits long vectors.
  const int n = 1024;
  const CsrMatrix a = poisson1d(n);
  std::vector<double> xref = random_vector(n, 11);
  std::vector<double> b(n);
  a.spmv(xref, b);
  const SolveOptions opts{
      .max_iterations = 50, .rel_tolerance = 1e-10, .precond = {}};
  const int vlmax = platforms::riscv_vec().vlmax;

  auto solve_avl = [&](int strip) {
    sim::Vpu vpu(platforms::riscv_vec());
    std::vector<double> x(n, 0.0);
    (void)vcg(vpu, a, b, x, opts, strip);
    return metrics::compute(vpu.counters(), vlmax).avl;
  };

  const double avl_short = solve_avl(16);
  const double avl_long = solve_avl(512);
  EXPECT_NEAR(avl_short, 16.0, 1.0);
  EXPECT_GT(avl_long, 0.9 * vlmax);
  EXPECT_GT(avl_long, 10.0 * avl_short);
}

}  // namespace
