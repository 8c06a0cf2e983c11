// Transient campaign — the co-design occupancy report for the full
// semi-implicit time loop: every scenario × all four platforms × the
// studied VECTOR_SIZEs, each point running N pressure-projection steps
// (assembly phases 1–8 + momentum BiCGStab 9 + pressure CG 10 + BLAS-1
// correction 11) with per-phase counters.
//
// The reading mirrors the assembly study: the solve stage dominates the
// per-step cycle budget once the loop is transient, its AVL tracks
// min(VECTOR_SIZE, vlmax) — so long-vector occupancy in the SOLVE phases,
// not assembly, is where the co-design case is won at scale.  The
// blocked-momentum and sparse-format studies of the same loop are the
// multirhs_speedup and spmv_format_sweep sections of BENCH_PR5.json
// (tools/bench_to_json).
#include "bench_common.h"

#include "core/campaign.h"
#include "core/csv.h"

int main() {
  using namespace vecfd;
  std::cout << core::banner("Transient campaign",
                            "scenario x platform x VECTOR_SIZE occupancy of "
                            "the semi-implicit time loop");

  auto scens = miniapp::all_scenarios();
  if (bench::small_run()) {
    for (auto& s : scens) {
      s.mesh.nx = std::max(3, s.mesh.nx / 2);
      s.mesh.ny = std::max(3, s.mesh.ny / 2);
      s.mesh.nz = std::max(3, s.mesh.nz / 2);
    }
  }
  const int steps = bench::small_run() ? 2 : 3;
  const core::Campaign camp(std::move(scens));
  for (std::size_t i = 0; i < camp.scenarios().size(); ++i) {
    const auto& s = camp.scenarios()[i];
    std::cout << "scenario " << s.name << ": "
              << camp.mesh(static_cast<int>(i)).num_elements()
              << " hex elements — " << s.description << '\n';
  }
  std::cout << "steps per point: " << steps
            << (bench::small_run() ? " (VECFD_BENCH_SMALL)" : "") << "\n\n";

  const sim::MachineConfig machines[] = {
      platforms::riscv_vec(), platforms::riscv_vec_scalar(),
      platforms::sx_aurora(), platforms::mn4_avx512()};
  const auto points = camp.grid(machines, bench::kVectorSizes, steps);
  const auto runs = camp.run_points(points, bench::sweep_jobs());

  core::Table t({"scenario", "machine", "VS", "cycles", "solve share",
                 "ph9 AVL", "ph9 Ev", "ph10 AVL", "iters 9/10", "div"});
  for (const auto& r : runs) {
    const double solve_cycles =
        r.phase_cycles(miniapp::kSolvePhase) +
        r.phase_cycles(miniapp::kPressurePhase) +
        r.phase_cycles(miniapp::kCorrectionPhase);
    const auto& p9 = r.phase_metrics[miniapp::kSolvePhase];
    const auto& p10 = r.phase_metrics[miniapp::kPressurePhase];
    t.add_row({r.scenario, r.point.machine.name,
               std::to_string(r.point.vector_size),
               core::fmt(r.total_cycles, 0),
               core::fmt_pct(r.total_cycles > 0.0
                                 ? solve_cycles / r.total_cycles
                                 : 0.0),
               core::fmt(p9.avl, 1), core::fmt_pct(p9.ev),
               core::fmt(p10.avl, 1),
               std::to_string(r.momentum_iterations) + "/" +
                   std::to_string(r.pressure_iterations),
               core::fmt(r.final_divergence, 4)});
  }
  std::cout << t.to_string();
  std::cout << "\nreading guide: per step the solve stage (phases 9-11) "
               "dominates the cycle budget, and its AVL saturates at "
               "min(VECTOR_SIZE, vlmax) — the transient loop is where long "
               "vectors pay off.\n";
  return 0;
}
