// The paper scorecard: every evaluation claim of the paper (Figures 2–13,
// Tables 3–6, the §4 FMA anchor) and every claim the model makes about its
// own design (§2.3 scheme and solve, the Fig 9/11 ablations) as one row of
// a table declared once, below.  A row computes its modelled value from one
// shared measurement pass (measure()); a value row carries the published
// number for its relative error, a shape row is a PASS/FAIL verdict stored
// as 1/0.  bench/paper_scorecard prints the rows; tools/bench_to_json pins
// their values in BENCH_PR5.json, so the bench_baseline ctest fails when a
// modelled paper number moves.  Rows that miss the paper stay as they are
// (DESIGN.md §11).
#pragma once

#include <algorithm>
#include <initializer_list>
#include <iterator>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "core/experiment.h"
#include "metrics/metrics.h"
#include "platforms/platforms.h"
#include "sim/timing_model.h"
#include "stats/ols.h"
#include "trace/vehave_trace.h"

namespace vecfd::bench {

/// The paper's evaluation mesh, 16×20×24 = 7680 elements: divisible by
/// every studied VECTOR_SIZE.
inline constexpr fem::MeshConfig kPaperMesh{.nx = 16, .ny = 20, .nz = 24};

/// The paper's studied VECTOR_SIZE values (§2.3).
inline constexpr auto& kVectorSizes = miniapp::kStudiedVectorSizes;

}  // namespace vecfd::bench

namespace vecfd::bench::scorecard {

using miniapp::OptLevel;
using enum miniapp::OptLevel;

/// The explicit-scheme mini-app configuration at @p vs and @p opt.
inline miniapp::MiniAppConfig config(int vs, OptLevel opt) {
  miniapp::MiniAppConfig cfg;
  cfg.vector_size = vs;
  cfg.opt = opt;
  return cfg;
}

/// VEC1 at @p vs under the semi-implicit scheme, with the phase-9 solve
/// chained when @p solve.
inline miniapp::MiniAppConfig semi_implicit_vec1(int vs, bool solve) {
  miniapp::MiniAppConfig cfg = config(vs, kVec1);
  cfg.scheme = fem::Scheme::kSemiImplicit;
  cfg.run_solve = solve;
  return cfg;
}

/// riscv-vec without the lane-feeding FSM quirk: every vector length feeds
/// the lanes at full rate (DESIGN.md §1).
inline sim::MachineConfig riscv_without_fsm_quirk() {
  sim::MachineConfig m = platforms::riscv_vec();
  m.name = "riscv-vec-no-fsm-quirk";
  m.fsm_group = 1;
  m.fsm_penalty = 1.0;
  return m;
}

/// riscv-vec with ideal caches: an L2 or memory access costs no extra
/// cycles over an L1 hit.
inline sim::MachineConfig riscv_ideal_caches() {
  sim::MachineConfig m = platforms::riscv_vec();
  m.name = "riscv-vec-ideal-caches";
  m.memory.l2_latency = 0.0;
  m.memory.mem_latency = 0.0;
  return m;
}

/// The measurements every row reads.
struct Evidence {
  std::vector<core::Measurement> runs;
  double vec2_phase2_avl = 0.0;  ///< Vehave-traced phase-2 AVL, VEC2 @ 240

  /// The run of @p machine at @p app's VECTOR_SIZE, optimization level,
  /// scheme and solve switch.  Throws when no run or more than one run
  /// matches, so a variant point can never be read in place of another.
  const core::Measurement& at(std::string_view machine,
                              const miniapp::MiniAppConfig& app) const {
    const core::Measurement* found = nullptr;
    for (const core::Measurement& m : runs) {
      if (m.machine.name == machine &&
          m.app.vector_size == app.vector_size && m.app.opt == app.opt &&
          m.app.scheme == app.scheme && m.app.run_solve == app.run_solve) {
        if (found != nullptr) {
          throw std::logic_error("paper scorecard: several runs " +
                                 std::string(machine) + " VS " +
                                 std::to_string(app.vector_size));
        }
        found = &m;
      }
    }
    if (found == nullptr) {
      throw std::out_of_range("paper scorecard: no run " +
                              std::string(machine) + " VS " +
                              std::to_string(app.vector_size));
    }
    return *found;
  }
  const core::Measurement& at(std::string_view machine, int vs,
                              OptLevel opt) const {
    return at(machine, config(vs, opt));
  }
  const core::Measurement& riscv(int vs, OptLevel opt) const {
    return at("riscv-vec", vs, opt);
  }
  const core::Measurement& scalar() const {
    return at("riscv-vec-scalar", 16, kScalar);
  }
};

/// The one measurement pass, on the paper's fixed kPaperMesh workload:
/// riscv-vec over kVectorSizes × {vanilla, VEC2, IVEC2, VEC1}, sx-aurora
/// and mn4-avx512 over kVectorSizes × {vanilla, VEC1}, the scalar
/// VECTOR_SIZE 16 baseline, and the VEC1 ablation points (FSM quirk off
/// at VS 240/256, ideal caches at VS 16/512, semi-implicit at VS 240, the
/// chained solve at VS 256/512), all in one run_points fan-out; then one
/// Vehave trace of VEC2 at VECTOR_SIZE 240.
inline Evidence measure() {
  const fem::Mesh mesh(kPaperMesh);
  const fem::State state(mesh);
  const core::Experiment ex(mesh, state);

  std::vector<core::SweepPoint> points;
  auto add = [&](const sim::MachineConfig& machine,
                 const miniapp::MiniAppConfig& cfg) {
    points.push_back({machine, cfg});
  };
  add(platforms::riscv_vec_scalar(), config(16, kScalar));
  for (const int vs : kVectorSizes) {
    for (const OptLevel opt : core::kSweepOptLevels) {
      add(platforms::riscv_vec(), config(vs, opt));
    }
    for (const auto& machine :
         {platforms::sx_aurora(), platforms::mn4_avx512()}) {
      add(machine, config(vs, kVanilla));
      add(machine, config(vs, kVec1));
    }
  }
  // The ablations go last: listed first, they made the pass ~25% slower
  // in host CPU time on a 4-core Xeon, at identical results.
  for (const int vs : {240, 256}) {
    add(riscv_without_fsm_quirk(), config(vs, kVec1));
  }
  for (const int vs : {16, 512}) add(riscv_ideal_caches(), config(vs, kVec1));
  add(platforms::riscv_vec(), semi_implicit_vec1(240, /*solve=*/false));
  for (const int vs : {256, 512}) {
    add(platforms::riscv_vec(), semi_implicit_vec1(vs, /*solve=*/true));
  }
  Evidence e;
  e.runs = ex.run_points(points);

  miniapp::MiniApp app(mesh, state, config(240, kVec2));
  sim::Vpu vpu(platforms::riscv_vec());
  trace::VehaveTrace tr(1u << 23);
  vpu.set_observer(&tr);
  (void)app.run(vpu);
  e.vec2_phase2_avl = tr.avl(2);
  return e;
}

/// Figure 12's metric: vanilla / VEC1 total cycles on one machine.
inline double opt_speedup(const Evidence& e, std::string_view machine,
                          int vs) {
  return e.at(machine, vs, kVanilla).total_cycles /
         e.at(machine, vs, kVec1).total_cycles;
}

/// Figure 11's metric: scalar VECTOR_SIZE 16 cycles / VEC1 cycles.
inline double vec1_speedup(const Evidence& e, int vs) {
  return e.scalar().total_cycles / e.riscv(vs, kVec1).total_cycles;
}

/// Phase-@p phase speed-up of @p to over @p from on riscv-vec.
inline double phase_speedup(const Evidence& e, int vs, int phase,
                            OptLevel from, OptLevel to) {
  return e.riscv(vs, from).phase_cycles(phase) /
         e.riscv(vs, to).phase_cycles(phase);
}

/// Phase share of the scalar VECTOR_SIZE 16 run, summed over @p phases.
inline double scalar_share(const Evidence& e,
                           std::initializer_list<int> phases) {
  double s = 0.0;
  for (const int p : phases) s += e.scalar().phase_share(p);
  return s;
}

/// Figure 13: on MN4, VEC1's phase-2 counter @p c is below vanilla's at
/// every VECTOR_SIZE.
template <class Counter>
bool mn4_phase2_below(const Evidence& e, Counter c) {
  return std::ranges::all_of(kVectorSizes, [&](int vs) {
    return c(e.at("mn4-avx512", vs, kVec1).phase[2]) <
           c(e.at("mn4-avx512", vs, kVanilla).phase[2]);
  });
}

/// Table 6: R² of VEC1 phase cycles over the VECTOR_SIZE sweep against
/// (L1 DCM per kilo-instruction, fraction of memory instructions).  A
/// fully scalar phase has a constant instruction mix at every
/// VECTOR_SIZE, so a regressor without variance is dropped before the fit.
inline double phase_r2(const Evidence& e, int phase) {
  std::vector<double> cycles;
  std::vector<double> dcm_ki;
  std::vector<double> mem_frac;
  for (const int vs : kVectorSizes) {
    const core::Measurement& m = e.riscv(vs, kVec1);
    cycles.push_back(m.phase_cycles(phase));
    dcm_ki.push_back(metrics::l1_dcm_per_kilo_instr(m.phase[phase]));
    mem_frac.push_back(metrics::memory_instr_fraction(m.phase[phase]));
  }
  std::vector<std::vector<double>> xs;
  for (auto* x : {&dcm_ki, &mem_frac}) {
    if (stats::variance(*x) > 1e-12) xs.push_back(*x);
  }
  return stats::ols_fit(xs, cycles).r_squared;
}

/// Whether @p phase takes the most cycles of the assembly phases 1–8.
inline bool top_assembly_phase(const core::Measurement& m, int phase) {
  for (int p = 1; p <= 8; ++p) {
    if (m.phase_cycles(p) > m.phase_cycles(phase)) return false;
  }
  return true;
}

/// Growth of the VEC1 phase 1+8 cycle share from VS 16 to VS 512 on
/// @p machine.
inline double phase18_share_growth(const Evidence& e,
                                   std::string_view machine) {
  auto share = [&](int vs) {
    const core::Measurement& m = e.at(machine, vs, kVec1);
    return m.phase_share(1) + m.phase_share(8);
  };
  return share(512) - share(16);
}

/// Phase-9 vector metrics of the semi-implicit VEC1 run with the chained
/// solve at @p vs.
inline const metrics::VectorMetrics& solve_metrics(const Evidence& e,
                                                   int vs) {
  return e.at("riscv-vec", semi_implicit_vec1(vs, /*solve=*/true))
      .phase_metrics[miniapp::kSolvePhase];
}

inline double phase6_vcpi(const Evidence& e, int vs) {
  return e.riscv(vs, kVanilla).phase_metrics[6].vcpi;
}

/// One scorecard row.
struct Row {
  enum Kind { kValue, kShape };
  const char* key;     ///< baseline key under "paper_scorecard"
  /// "§2.3", "§4", "Fig 2" … "Fig 13" or "Table 3" … "Table 6"
  const char* source;
  const char* claim;
  Kind kind;
  double published;    ///< the paper's value (kValue rows only)
  double (*model)(const Evidence&);  ///< kShape rows return 1 or 0
};

inline constexpr Row kRows[] = {
  {"sec2_3_semi_implicit_phase8_top", "§2.3",
   "semi-implicit VEC1 VS 240: phase 8 is the most time-consuming phase",
   Row::kShape, 0, [](const Evidence& e) -> double {
     return top_assembly_phase(
         e.at("riscv-vec", semi_implicit_vec1(240, /*solve=*/false)), 8);
   }},
  {"sec2_3_phase9_occupancy_saturates", "§2.3",
   "semi-implicit VEC1 phase-9 solve: Ev >= 0.99 at VS 256 and 512, AVL "
   "flat past vlmax", Row::kShape, 0,
   [](const Evidence& e) -> double {
     return solve_metrics(e, 256).ev >= 0.99 &&
            solve_metrics(e, 512).ev >= 0.99 &&
            solve_metrics(e, 512).avl == solve_metrics(e, 256).avl;
   }},
  {"sec4_fma_cycles_vl256", "§4",
   "RISC-V VEC: cycles per vector FMA at vl 256", Row::kValue, 32,
   [](const Evidence&) {
     const sim::MachineConfig machine = platforms::riscv_vec();
     return sim::TimingModel(machine).varith_cycles(256);
   }},
  {"fig2_fastest_vs", "Fig 2",
   "vanilla: VECTOR_SIZE with the fewest total cycles", Row::kValue, 240,
   [](const Evidence& e) -> double {
     return std::ranges::min(kVectorSizes, {}, [&](int vs) {
       return e.riscv(vs, kVanilla).total_cycles;
     });
   }},
  {"fig3_memory_share_vs240", "Fig 3",
   "vanilla VS 240: memory share of vector instructions", Row::kValue, 0.70,
   [](const Evidence& e) {
     return metrics::instruction_mix(e.riscv(240, kVanilla).total)
         .memory_fraction();
   }},
  {"fig4_phase12_share_vs512", "Fig 4",
   "vanilla VS 512: phases 1+2 share of cycles", Row::kValue, 0.38,
   [](const Evidence& e) {
     const core::Measurement& m = e.riscv(512, kVanilla);
     return m.phase_share(1) + m.phase_share(2);
   }},
  {"fig4_phase2_top_vs512", "Fig 4",
   "vanilla VS 512: phase 2 is the most time-consuming phase", Row::kShape,
   0, [](const Evidence& e) -> double {
     return top_assembly_phase(e.riscv(512, kVanilla), 2);
   }},
  {"fig5_vec2_phase2_slower", "Fig 5",
   "VEC2 phase-2 cycles above vanilla at every VS", Row::kShape, 0,
   [](const Evidence& e) -> double {
     return std::ranges::all_of(kVectorSizes, [&](int vs) {
       return phase_speedup(e, vs, 2, kVanilla, kVec2) < 1;
     });
   }},
  {"fig5_vec2_phase2_avl", "Fig 5",
   "VEC2 VS 240: phase-2 AVL in a Vehave trace", Row::kValue, 4,
   [](const Evidence& e) { return e.vec2_phase2_avl; }},
  {"fig6_ivec2_phase2_speedup_vs256", "Fig 6",
   "VS 256: IVEC2 phase-2 speed-up over vanilla", Row::kValue, 7.38,
   [](const Evidence& e) {
     return phase_speedup(e, 256, 2, kVanilla, kIVec2);
   }},
  {"fig7_vec1_phase1_speedup_vs512", "Fig 7",
   "VS 512: VEC1 phase-1 speed-up over IVEC2", Row::kValue, 2.0,
   [](const Evidence& e) { return phase_speedup(e, 512, 1, kIVec2, kVec1); }},
  {"fig8_phase8_share_rises", "Fig 8",
   "VEC1: phase-8 share rises at every VS step", Row::kShape, 0,
   [](const Evidence& e) -> double {
     for (std::size_t i = 1; i < std::size(kVectorSizes); ++i) {
       if (e.riscv(kVectorSizes[i], kVec1).phase_share(8) <=
           e.riscv(kVectorSizes[i - 1], kVec1).phase_share(8)) {
         return false;
       }
     }
     return true;
   }},
  {"fig9_phase1_8_stay_high", "Fig 9",
   "VEC1 VS 512: phases 1 and 8 keep the largest share of their VS-16 "
   "cycles", Row::kShape, 0, [](const Evidence& e) -> double {
     auto ratio = [&](int p) {
       return e.riscv(512, kVec1).phase_cycles(p) /
              e.riscv(16, kVec1).phase_cycles(p);
     };
     for (int p = 2; p <= 7; ++p) {
       if (ratio(p) >= std::min(ratio(1), ratio(8))) return false;
     }
     return true;
   }},
  {"fig9_ideal_caches_keep_phase18_growth", "Fig 9",
   "VEC1: ideal caches keep >= half of the phase 1+8 share growth, VS 16 "
   "to 512", Row::kShape, 0, [](const Evidence& e) -> double {
     return phase18_share_growth(e, riscv_ideal_caches().name) >=
            0.5 * phase18_share_growth(e, "riscv-vec");
   }},
  {"fig10_occupancy_vs256", "Fig 10", "VEC1 VS 256: vector occupancy Ev",
   Row::kValue, 1.0,
   [](const Evidence& e) { return e.riscv(256, kVec1).overall.ev; }},
  {"fig11_vec1_speedup_vs240", "Fig 11",
   "VEC1 VS 240: speed-up over scalar VS 16", Row::kValue, 7.6,
   [](const Evidence& e) { return vec1_speedup(e, 240); }},
  {"fig11_best_vs", "Fig 11", "VECTOR_SIZE of the best VEC1 speed-up",
   Row::kValue, 240, [](const Evidence& e) -> double {
     return std::ranges::max(kVectorSizes, {},
                             [&](int vs) { return vec1_speedup(e, vs); });
   }},
  {"fig11_no_fsm_quirk_vs256_beats_240", "Fig 11",
   "without the FSM quirk: VEC1 at VS 256 beats VS 240", Row::kShape, 0,
   [](const Evidence& e) -> double {
     const std::string machine = riscv_without_fsm_quirk().name;
     return e.at(machine, 256, kVec1).total_cycles <
            e.at(machine, 240, kVec1).total_cycles;
   }},
  {"fig12_riscv_max_speedup", "Fig 12",
   "RISC-V VEC: largest VEC1-over-vanilla speed-up", Row::kValue, 1.45,
   [](const Evidence& e) {
     auto speedup = [&](int vs) { return opt_speedup(e, "riscv-vec", vs); };
     return speedup(std::ranges::max(kVectorSizes, {}, speedup));
   }},
  {"fig12_aurora_speedup_vs240", "Fig 12",
   "SX-Aurora VS 240: VEC1-over-vanilla speed-up", Row::kValue, 1.64,
   [](const Evidence& e) { return opt_speedup(e, "sx-aurora", 240); }},
  {"fig12_aurora_peaks_at_240", "Fig 12",
   "SX-Aurora: VEC1-over-vanilla speed-up peaks at VS 240", Row::kShape, 0,
   [](const Evidence& e) -> double {
     return std::ranges::max(kVectorSizes, {}, [&](int vs) {
              return opt_speedup(e, "sx-aurora", vs);
            }) == 240;
   }},
  {"fig12_mn4_no_regression", "Fig 12",
   "MN4: VEC1-over-vanilla speed-up at least 1 at every VS", Row::kShape, 0,
   [](const Evidence& e) -> double {
     return std::ranges::all_of(kVectorSizes, [&](int vs) {
       return opt_speedup(e, "mn4-avx512", vs) >= 1.0;
     });
   }},
  {"fig13_phase2_l1_miss_ratio_below_1", "Fig 13",
   "MN4: VEC1/vanilla phase-2 L1-miss ratio below 1 at every VS",
   Row::kShape, 0, [](const Evidence& e) -> double {
     return mn4_phase2_below(
         e, [](const sim::Counters& c) { return c.l1_misses; });
   }},
  {"fig13_phase2_instr_ratio_below_1", "Fig 13",
   "MN4: VEC1/vanilla phase-2 instruction ratio below 1 at every VS",
   Row::kShape, 0, [](const Evidence& e) -> double {
     return mn4_phase2_below(
         e, [](const sim::Counters& c) { return c.total_instrs(); });
   }},
  {"table3_phase6734_share", "Table 3",
   "scalar VS 16: phases {6,7,3,4} share of cycles", Row::kValue, 0.90,
   [](const Evidence& e) { return scalar_share(e, {6, 7, 3, 4}); }},
  {"table3_phase12_share", "Table 3",
   "scalar VS 16: phases {1,2} share of cycles", Row::kValue, 0.04,
   [](const Evidence& e) { return scalar_share(e, {1, 2}); }},
  {"table4_mv_phase128_zero", "Table 4",
   "vanilla: Mv rounds to 0% in phases 1, 2 and 8 at every VS", Row::kShape,
   0, [](const Evidence& e) -> double {
     return std::ranges::all_of(kVectorSizes, [&](int vs) {
       const auto& pm = e.riscv(vs, kVanilla).phase_metrics;
       return std::max({pm[1].mv, pm[2].mv, pm[8].mv}) < 0.005;
     });
   }},
  {"table5_phase6_vcpi_vs16", "Table 5", "vanilla VS 16: phase-6 vCPI",
   Row::kValue, 9.71, [](const Evidence& e) { return phase6_vcpi(e, 16); }},
  {"table5_phase6_vcpi_vs64", "Table 5", "vanilla VS 64: phase-6 vCPI",
   Row::kValue, 23.39, [](const Evidence& e) { return phase6_vcpi(e, 64); }},
  {"table5_phase6_vcpi_vs128", "Table 5", "vanilla VS 128: phase-6 vCPI",
   Row::kValue, 28.56, [](const Evidence& e) { return phase6_vcpi(e, 128); }},
  {"table5_phase6_vcpi_vs240", "Table 5", "vanilla VS 240: phase-6 vCPI",
   Row::kValue, 41.19, [](const Evidence& e) { return phase6_vcpi(e, 240); }},
  {"table5_phase6_vcpi_vs256", "Table 5", "vanilla VS 256: phase-6 vCPI",
   Row::kValue, 43.10, [](const Evidence& e) { return phase6_vcpi(e, 256); }},
  {"table5_phase6_vcpi_vs512", "Table 5", "vanilla VS 512: phase-6 vCPI",
   Row::kValue, 45.30, [](const Evidence& e) { return phase6_vcpi(e, 512); }},
  {"table6_r2_phase1", "Table 6",
   "VEC1: R^2 of phase-1 cycles on (L1 DCM/ki, % memory)", Row::kValue,
   0.903, [](const Evidence& e) { return phase_r2(e, 1); }},
  {"table6_r2_phase8", "Table 6",
   "VEC1: R^2 of phase-8 cycles on (L1 DCM/ki, % memory)", Row::kValue,
   0.966, [](const Evidence& e) { return phase_r2(e, 8); }},
};

}  // namespace vecfd::bench::scorecard
