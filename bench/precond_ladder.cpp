// Preconditioner ladder — the phase-10 co-design study (DESIGN.md §8):
// jacobi / cheby / deflate on the cavity pressure-Poisson solve across mesh
// refinements, comparing pressure iterations and simulated phase-10 cycles.
//
// The ladder trades instrumented work per iteration (Chebyshev SpMVs,
// deflation transfers) for iteration count; the Jacobi-relative columns
// make the trade visible.  Two-level deflation caps the effective condition
// number, so its iteration count must LEVEL OFF under refinement while
// Jacobi's grows — that separation is the acceptance gate.
//
// Every rung's residual history is bit-identical across SpMV formats
// (csr-host / ell / sell): all rung arithmetic flows through the mirrored
// operator apply and format-independent kernels.  The bench re-verifies
// this directly on the pinned Laplacian before measuring.
//
// Acceptance (exit 1 on failure): on the finest refinement, deflation
// converges the pressure solve in at most HALF the Jacobi iterations, and
// the rungs order deflate <= cheby <= jacobi.
#include "bench_common.h"

#include <string>
#include <vector>

#include "bench_metrics.h"
#include "fem/projection.h"
#include "fem/shape.h"
#include "solver/preconditioner.h"
#include "solver/vkernels.h"

namespace {

using namespace vecfd;

constexpr solver::PrecondKind kRungs[] = {solver::PrecondKind::kJacobi,
                                          solver::PrecondKind::kCheby,
                                          solver::PrecondKind::kDeflate};

/// Solve the pinned cavity Laplacian once per format and demand bitwise
/// equal residual histories (the format-equivalence contract, extended to
/// every rung of the ladder).
bool histories_bit_identical(const fem::Mesh& mesh,
                             solver::PrecondKind kind) {
  const fem::ShapeTable shape;
  solver::CsrMatrix a = fem::assemble_pressure_laplacian(mesh, shape);
  const int pin[] = {0};
  fem::pin_dirichlet(a, pin);
  const int n = a.rows();
  std::vector<double> b(static_cast<std::size_t>(n), 1.0);
  b[0] = 0.0;  // pinned row
  solver::SolveOptions opts{.max_iterations = 400, .rel_tolerance = 1e-10,
                            .precond = {}};
  opts.precond.kind = kind;
  opts.precond.aggregates = fem::structured_aggregates(mesh, 2);

  std::vector<double> ref_hist;
  for (const auto format :
       {solver::SpmvFormat::kCsrHost, solver::SpmvFormat::kEll,
        solver::SpmvFormat::kSell}) {
    sim::Vpu vpu(platforms::riscv_vec());
    std::vector<double> x(static_cast<std::size_t>(n), 0.0);
    const auto rep =
        solver::vcg(vpu, a, b, x, opts, 240, nullptr, format);
    if (!rep.converged) return false;
    if (ref_hist.empty()) {
      ref_hist = rep.history;
    } else if (rep.history != ref_hist) {  // bitwise, via double ==
      return false;
    }
  }
  return true;
}

}  // namespace

int main() {
  using namespace vecfd;
  std::cout << core::banner("Preconditioner ladder",
                            "jacobi/cheby/deflate x cavity refinement: "
                            "pressure iterations, phase-10 cycles");

  std::vector<int> refinements = {6, 8, 12};
  if (bench::small_run()) refinements = {6, 8};
  const sim::MachineConfig machine = platforms::riscv_vec();
  const int vs = 240;
  const int steps = 2;
  std::cout << "scenario cavity, riscv-vec, VECTOR_SIZE=" << vs << ", "
            << steps << " steps per point"
            << (bench::small_run() ? " (VECFD_BENCH_SMALL)" : "") << "\n\n";

  core::Table t({"mesh", "precond", "p10 iters", "iters vs jacobi",
                 "p10 cycles", "cycles vs jacobi"});
  bool accepted = false;
  bool formats_ok = true;
  for (std::size_t ri = 0; ri < refinements.size(); ++ri) {
    const int nref = refinements[ri];
    miniapp::Scenario scen = miniapp::scenario_cavity();
    scen.mesh = {.nx = nref, .ny = nref, .nz = nref};
    const fem::Mesh mesh(scen.mesh);
    const bool finest = ri + 1 == refinements.size();

    int jacobi_iters = 0;
    double jacobi_cycles = 0.0;
    int cheby_iters = 0;
    for (const auto kind : kRungs) {
      formats_ok = formats_ok && histories_bit_identical(mesh, kind);
      const auto st = bench::run_transient_point(
          mesh, scen, machine,
          {.steps = steps, .vector_size = vs, .precond = kind},
          /*spinup=*/false);
      if (kind == solver::PrecondKind::kJacobi) {
        jacobi_iters = st.pressure_iterations;
        jacobi_cycles = st.cycles_p10;
      }
      if (kind == solver::PrecondKind::kCheby) {
        cheby_iters = st.pressure_iterations;
      }
      if (finest && kind == solver::PrecondKind::kDeflate) {
        accepted = jacobi_iters >= 2 * st.pressure_iterations &&
                   st.pressure_iterations <= cheby_iters &&
                   cheby_iters <= jacobi_iters;
      }
      const std::string mesh_tag = std::to_string(nref) + "^3";
      t.add_row({mesh_tag, solver::to_string(kind),
                 std::to_string(st.pressure_iterations),
                 jacobi_iters > 0
                     ? core::fmt(static_cast<double>(st.pressure_iterations) /
                                     jacobi_iters, 2) + "x"
                     : "-",
                 core::fmt(st.cycles_p10, 0),
                 jacobi_cycles > 0.0
                     ? core::fmt(st.cycles_p10 / jacobi_cycles, 2) + "x"
                     : "-"});
    }
  }
  std::cout << t.to_string();
  std::cout << "\nreading guide: Jacobi iterations grow with refinement "
               "(kappa ~ h^-2); the Chebyshev rung divides them by a "
               "kappa-independent factor; the balancing two-level rung "
               "caps kappa, so its count levels off.  Acceptance: on the "
               "finest mesh deflation needs <= half the Jacobi iterations "
               "with deflate <= cheby <= jacobi (acceptance"
            << (accepted ? " met" : " NOT met")
            << "), and every rung's residual history is bit-identical "
               "across csr/ell/sell (check "
            << (formats_ok ? "passed" : "FAILED") << ").\n";
  return accepted && formats_ok ? 0 : 1;
}
