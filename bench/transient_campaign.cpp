// Transient campaign — the co-design occupancy report for the full
// semi-implicit time loop: every scenario × all four platforms × the
// studied VECTOR_SIZEs, each point running N pressure-projection steps
// (assembly phases 1–8 + momentum BiCGStab 9 + pressure CG 10 + BLAS-1
// correction 11) with per-phase counters.
//
// The reading mirrors the assembly study: the solve stage dominates the
// per-step cycle budget once the loop is transient, its AVL tracks
// min(VECTOR_SIZE, vlmax) — so long-vector occupancy in the SOLVE phases,
// not assembly, is where the co-design case is won at scale.
#include "bench_common.h"

#include "bench_metrics.h"
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

  // ---- blocked vs per-component momentum: operator-slab traffic --------
  // The campaign above runs the (default) blocked multi-RHS phase 9; the
  // per-component reference quantifies what the fusion buys.  Slab loads
  // from the per-phase counters alone: in the per-component path every
  // gather pairs with one value + one index slab load (slab = 2×indexed),
  // and the paths are instruction-identical outside the shared slabs, so
  // slab_blocked = slab_pc − Δ(unit loads).  See bench/multirhs_speedup
  // for the deeper per-VECTOR_SIZE study.
  std::cout << "\nblocked multi-RHS phase 9 vs per-component (scenario "
            << camp.scenarios()[0].name << ", riscv-vec):\n\n";
  std::vector<core::CampaignPoint> cmp_points;
  for (int vs : bench::kVectorSizes) {
    core::CampaignPoint p;
    p.scenario = 0;
    p.machine = platforms::riscv_vec();
    p.vector_size = vs;
    p.steps = steps;
    for (const bool blocked : {true, false}) {
      p.blocked_momentum = blocked;
      cmp_points.push_back(p);
    }
  }
  const auto cmp_runs = camp.run_points(cmp_points, bench::sweep_jobs());
  core::Table ct({"VS", "ph9 slab loads", "blocked slabs", "slab redux",
                  "ph9 AVL", "ph9 Ev", "ph9 speedup"});
  for (std::size_t i = 0; i + 1 < cmp_runs.size(); i += 2) {
    const auto& blk = cmp_runs[i].loop.phase[miniapp::kSolvePhase];
    const auto& pc = cmp_runs[i + 1].loop.phase[miniapp::kSolvePhase];
    if (blk.vmem_indexed_instrs != pc.vmem_indexed_instrs) {
      // the Δunit identity needs per-column-identical paths
      std::cout << "VS " << cmp_runs[i].point.vector_size
                << ": paths diverged (gathers differ) — slab accounting "
                   "skipped\n";
      continue;
    }
    const double slab_pc = 2.0 * static_cast<double>(pc.vmem_indexed_instrs);
    const double slab_blk =
        slab_pc - (static_cast<double>(pc.vmem_unit_instrs) -
                   static_cast<double>(blk.vmem_unit_instrs));
    const auto& m9 = cmp_runs[i].phase_metrics[miniapp::kSolvePhase];
    ct.add_row({std::to_string(cmp_runs[i].point.vector_size),
                core::fmt(slab_pc, 0), core::fmt(slab_blk, 0),
                core::fmt(slab_pc / slab_blk, 2) + "x", core::fmt(m9.avl, 1),
                core::fmt_pct(m9.ev),
                core::fmt(pc.total_cycles() / blk.total_cycles(), 2) + "x"});
  }
  std::cout << ct.to_string();

  // ---- sparse-format co-design summary (DESIGN.md §6) ------------------
  // The campaign above runs the (default) padded-ELL mirror; the format
  // knob trades gather traffic at bit-identical residual histories.  The
  // strip must stay well below the node count so the operator splits into
  // several SELL slices (one whole-matrix slice makes every format the
  // same layout); the shuffled-numbering study where RCM earns its keep
  // is bench/spmv_format_sweep.
  const int vs_fmt = bench::small_run() ? 16 : 64;
  std::cout << "\nsparse formats on scenario " << camp.scenarios()[0].name
            << " (riscv-vec, VS " << vs_fmt << ", blocked phase 9):\n\n";
  core::Table ft({"format", "solve cyc/it", "gl/it", "pad frac",
                  "coalesced", "ph9 AVL"});
  for (const auto& fc : bench::kFormatCases) {
    const auto st = bench::run_transient_point(
        camp.mesh(0), camp.scenarios()[0], platforms::riscv_vec(),
        {.steps = steps, .vector_size = vs_fmt, .format = fc.format,
         .rcm_renumber = fc.rcm},
        /*spinup=*/false);
    ft.add_row({fc.name,
                core::fmt(st.solve_iterations() > 0
                              ? st.solve_cycles() / st.solve_iterations()
                              : 0.0,
                          0),
                core::fmt(st.gather_lines_per_iteration(), 0),
                core::fmt_pct(st.pad_fraction()),
                std::to_string(st.coalesced_lanes),
                core::fmt(st.avl, 1)});
  }
  std::cout << ft.to_string();
  std::cout << "\nformats trade counters, never numerics: the residual "
               "histories behind every row above are bit-identical "
               "(test_format_equivalence).\n";
  return 0;
}
