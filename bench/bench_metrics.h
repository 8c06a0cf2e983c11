// Shared transient-solve measurement core for the co-design benches and
// the tools/bench_to_json perf-baseline emitter: one TimeLoop run distilled
// into the solve-phase numbers the studies compare (cycles, AVL, occupancy,
// memory-op mix, gather-quality counters, Krylov iteration counts).
//
// bench/multirhs_speedup and bench/spmv_format_sweep print tables from
// these stats; tools/bench_to_json serializes them into BENCH_PR5.json so
// later PRs can diff against a checked-in perf trajectory.  Keeping the
// measurement in ONE place guarantees the JSON baseline and the human
// tables can never drift apart.
#pragma once

#include <cstdint>

#include "core/campaign.h"
#include "fem/mesh.h"
#include "metrics/metrics.h"
#include "miniapp/time_loop.h"
#include "platforms/platforms.h"
#include "sim/vpu.h"
#include "solver/format.h"

namespace vecfd::bench {

/// The format study's case set, shared by bench/spmv_format_sweep and the
/// transient_campaign appendix so the two reports can never drift apart.
struct FormatCase {
  const char* name;
  solver::SpmvFormat format;
  bool rcm;
};

inline constexpr FormatCase kFormatCases[] = {
    {"csr-host", solver::SpmvFormat::kCsrHost, false},
    {"ell", solver::SpmvFormat::kEll, false},
    {"sell", solver::SpmvFormat::kSell, false},
    {"sell+rcm", solver::SpmvFormat::kSell, true},
};

/// Solve-stage digest of one transient run: phase 9 (momentum) and
/// phase 10 (pressure) — the two Krylov consumers of the sparse format.
struct SolveStats {
  double cycles = 0.0;        ///< phase-9 cycles
  double cycles_p10 = 0.0;    ///< phase-10 cycles
  double avl = 0.0;           ///< phase-9 average vector length
  double ev = 0.0;            ///< phase-9 occupancy
  std::uint64_t unit = 0;     ///< phase-9 unit-stride vector memory ops
  std::uint64_t indexed = 0;  ///< phase-9 gathers/scatters
  std::uint64_t gather_lanes = 0;
  std::uint64_t gather_lines = 0;   ///< distinct lines touched by gathers
  std::uint64_t pad_lanes = 0;
  std::uint64_t coalesced_lanes = 0;
  std::uint64_t halo_lines = 0;      ///< phase-10 halo lines sent + received
  std::uint64_t halo_messages = 0;   ///< phase-10 ghost-exchange messages
  std::uint64_t p10_gather_lines = 0;  ///< phase-10 gathered lines alone
  double pressure_makespan = 0.0;    ///< phase-10 BSP critical path (§9)
  double p10_avl = 0.0;              ///< phase-10 average vector length
  int iterations = 0;               ///< Σ momentum iterations (phase 9)
  int pressure_iterations = 0;      ///< Σ pressure iterations (phase 10)

  int solve_iterations() const { return iterations + pressure_iterations; }
  double solve_cycles() const { return cycles + cycles_p10; }
  /// Distinct x-lines gathered per Krylov iteration (phases 9+10) — the
  /// locality metric the SELL+RCM acceptance bounds.
  double gather_lines_per_iteration() const {
    const int it = solve_iterations();
    return it > 0 ? static_cast<double>(gather_lines) / it : 0.0;
  }
  /// Pad share of all x-access lanes issued by the SpMV kernels.
  double pad_fraction() const {
    const double lanes = static_cast<double>(gather_lanes + pad_lanes +
                                             coalesced_lanes);
    return lanes > 0.0 ? static_cast<double>(pad_lanes) / lanes : 0.0;
  }
};

/// Blocked-vs-per-component slab accounting (DESIGN.md §5), from the
/// per-phase counters alone: in the per-component path every gather pairs
/// with exactly one value + one index slab load (slab = 2 × indexed), and
/// the two paths are per-column instruction-identical elsewhere, so the
/// blocked count is slab − Δ(unit loads).  The identity — and therefore
/// every derived number — is only `valid` when the paths really did run
/// in lockstep (equal iteration and gather counts); callers must check it
/// before quoting the reduction.  Single source for bench/multirhs_speedup
/// and tools/bench_to_json so the table and the checked-in baseline can
/// never desynchronize.
struct SlabComparison {
  bool valid = false;
  double slab_pc = 0.0;   ///< per-component operator slab loads
  double slab_blk = 0.0;  ///< blocked operator slab loads
  double redux = 0.0;     ///< slab_pc / slab_blk
  double avl_drift = 0.0; ///< |AVL_blk − AVL_pc| / AVL_pc
};

inline SlabComparison compare_slab_traffic(const SolveStats& pc,
                                           const SolveStats& blk) {
  SlabComparison c;
  c.valid = pc.iterations == blk.iterations && pc.indexed == blk.indexed;
  c.slab_pc = 2.0 * static_cast<double>(pc.indexed);
  c.slab_blk = c.slab_pc - static_cast<double>(pc.unit - blk.unit);
  c.redux = c.slab_blk > 0.0 ? c.slab_pc / c.slab_blk : 0.0;
  c.avl_drift = pc.avl > 0.0 ? (blk.avl > pc.avl ? blk.avl - pc.avl
                                                 : pc.avl - blk.avl) / pc.avl
                             : 0.0;
  return c;
}

/// One measured transient point.  With @p spinup a first (unmeasured) pass
/// develops the flow so all momentum components have real work — the
/// regime the multi-RHS comparison must run in; run() resets the machine,
/// so the second pass is an independent measurement of a developed flow.
inline SolveStats run_transient_point(const fem::Mesh& mesh,
                                      const miniapp::Scenario& scen,
                                      const sim::MachineConfig& machine,
                                      const miniapp::TimeLoopConfig& cfg,
                                      bool spinup) {
  miniapp::TimeLoop loop(mesh, scen, cfg);
  sim::Vpu vpu(machine);
  if (spinup) (void)loop.run(vpu);
  const auto res = loop.run(vpu);

  SolveStats st;
  const auto& p9 = res.phase[miniapp::kSolvePhase];
  const auto& p10 = res.phase[miniapp::kPressurePhase];
  st.cycles = p9.total_cycles();
  st.cycles_p10 = p10.total_cycles();
  const auto m = metrics::compute(p9, machine.vlmax);
  st.avl = m.avl;
  st.ev = m.ev;
  st.unit = p9.vmem_unit_instrs;
  st.indexed = p9.vmem_indexed_instrs;
  st.gather_lanes = p9.gather_lanes + p10.gather_lanes;
  st.gather_lines = p9.gather_lines_touched + p10.gather_lines_touched;
  st.pad_lanes = p9.pad_lanes + p10.pad_lanes;
  st.coalesced_lanes = p9.coalesced_lanes + p10.coalesced_lanes;
  st.halo_lines = p10.halo_lines_sent + p10.halo_lines_recv;
  st.halo_messages = p10.halo_messages;
  st.p10_gather_lines = p10.gather_lines_touched;
  st.pressure_makespan = res.pressure_makespan_cycles;
  st.p10_avl = metrics::compute(p10, machine.vlmax).avl;
  for (const auto& step : res.steps) {
    for (const auto& rep : step.momentum) st.iterations += rep.iterations;
    st.pressure_iterations += step.pressure.iterations;
  }
  return st;
}

}  // namespace vecfd::bench
