// Multi-RHS speedup — the memory-traffic case for the blocked phase-9
// momentum solve (DESIGN.md §5): per studied VECTOR_SIZE the transient
// loop runs twice, blocked (vbicgstab_multi, shared operator slabs) and
// per-component (the sequential 9a–9c reference), and the solve-phase
// counters quantify the exchange.
//
// Slab accounting from the existing per-phase memory counters alone:
//
//   * per-component path: every (strip, slab) visit issues exactly one
//     value vload + one index vload_i32 + one vgather, so
//     slab_pc = 2 × ph9.vmem_indexed;
//   * the two paths are per-column instruction-identical everywhere else
//     (same gathers, stores, BLAS-1 traffic — asserted via equal iteration
//     counts and equal indexed counts), so the blocked slab count is
//     slab_b = slab_pc − (unit_pc − unit_b).
//
// The acceptance claim: ≥ 2.5× fewer operator value/index slab loads per
// solve-phase iteration with kDim = 3 components (3× when all columns
// converge together), at solve-phase AVL within 2% of the per-component
// path — fusion must buy traffic, not occupancy.
#include "bench_common.h"

#include <algorithm>
#include <cmath>

#include "bench_metrics.h"
#include "miniapp/time_loop.h"

namespace {

// One path = one measured transient run (bench_metrics.h); the spin-up
// pass develops the flow so all kDim momentum columns have real work to
// share slabs across — the regime a transient run lives in.
vecfd::bench::SolveStats run_path(const vecfd::fem::Mesh& mesh,
                                  const vecfd::miniapp::Scenario& scen,
                                  int vs, int steps, bool blocked) {
  using namespace vecfd;
  return bench::run_transient_point(
      mesh, scen, platforms::riscv_vec(),
      {.steps = steps, .vector_size = vs, .blocked_momentum = blocked},
      /*spinup=*/true);
}

}  // namespace

int main() {
  using namespace vecfd;
  std::cout << core::banner("Multi-RHS speedup",
                            "blocked vs per-component momentum solve: "
                            "operator slab loads, AVL, cycles");

  miniapp::Scenario scen = miniapp::scenario_cavity();
  if (bench::small_run()) {
    scen.mesh.nx = scen.mesh.ny = scen.mesh.nz = 3;
  }
  const fem::Mesh mesh(scen.mesh);
  const int steps = 4;
  std::cout << "scenario " << scen.name << ": " << mesh.num_elements()
            << " hex elements, " << steps << " steps, riscv-vec"
            << (bench::small_run() ? " (VECFD_BENCH_SMALL)" : "") << "\n\n";

  core::Table t({"VS", "iters", "slab/it pc", "slab/it blk", "slab redux",
                 "AVL pc", "AVL blk", "Ev blk", "ph9 speedup"});
  double worst_redux = 1e30;
  double worst_avl_drift = 0.0;
  for (const int vs : bench::kVectorSizes) {
    const bench::SolveStats pc =
        run_path(mesh, scen, vs, steps, /*blocked=*/false);
    const bench::SolveStats blk =
        run_path(mesh, scen, vs, steps, /*blocked=*/true);
    const bench::SlabComparison cmp = bench::compare_slab_traffic(pc, blk);
    if (!cmp.valid) {
      std::cout << "MISMATCH at VS=" << vs
                << ": paths diverged (iters " << pc.iterations << " vs "
                << blk.iterations << ", gathers " << pc.indexed << " vs "
                << blk.indexed << ") — slab accounting invalid\n";
      return 1;
    }
    worst_redux = std::min(worst_redux, cmp.redux);
    worst_avl_drift = std::max(worst_avl_drift, cmp.avl_drift);
    t.add_row({std::to_string(vs), std::to_string(pc.iterations),
               core::fmt(cmp.slab_pc / pc.iterations, 0),
               core::fmt(cmp.slab_blk / blk.iterations, 0),
               core::fmt(cmp.redux, 2) + "x", core::fmt(pc.avl, 1),
               core::fmt(blk.avl, 1), core::fmt_pct(blk.ev),
               core::fmt(pc.cycles / blk.cycles, 2) + "x"});
  }
  std::cout << t.to_string();
  std::cout << "\nreading guide: the blocked solve streams each ELL "
               "value/index slab once for all " << fem::kDim
            << " momentum components, so operator slab loads per solve-phase "
               "iteration drop ~"
            << fem::kDim << "x (worst point " << core::fmt(worst_redux, 2)
            << "x, acceptance floor 2.5x) while AVL stays within "
            << core::fmt(100.0 * worst_avl_drift, 2)
            << "% of the per-component path (bound 2%).\n";
  return worst_redux >= 2.5 && worst_avl_drift <= 0.02 ? 0 : 1;
}
