// bench_to_json — perf-trajectory baseline emitter.
//
// Measures the four co-design studies — blocked multi-RHS momentum
// (DESIGN.md §5), SpMV formats (§6), the pressure preconditioner ladder
// (§8) and sharding (§9) — the solve stage's share of their transient
// steps (§4), and every row of the paper scorecard
// (bench/paper_scorecard.h) on a FIXED workload, so the checked-in
// baseline and any CI run measure the same thing.  The scalar metrics are
// serialized as JSON:
//
//   { "schema": "vecfd-bench-v1",
//     "benches": { "<bench>": { "<metric>": <number>, ... }, ... } }
//
// Each study section lists its transient points on a Study and returns the
// reduction that turns their TimeLoopResults into metrics; all study points
// run in one parallel_for_index fan-out, and a point two sections list runs
// once.  A `gate_*` key is one acceptance claim of its study as 1/0;
// test_bench_contract requires every one of them to be 1 in BENCH_PR5.json.
//
// Modes:
//   bench_to_json --out FILE    write the baseline (the PR workflow:
//                               regenerate, review the diff, commit)
//   bench_to_json --check FILE  re-measure and compare against FILE within
//                               kTolerance; exit 1 on drift or missing
//                               metrics — the tier-1 bench_baseline ctest
//                               that keeps BENCH_PR5.json honest
//
// The simulation is deterministic, so drift beyond last-ulp accumulation
// differences between compilers means a real perf change: regenerate the
// baseline in the same PR and let the reviewer see the trajectory.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/parallel.h"
#include "fem/mesh.h"
#include "metrics/metrics.h"
#include "miniapp/checkpoint.h"
#include "miniapp/scenarios.h"
#include "miniapp/time_loop.h"
#include "paper_scorecard.h"
#include "platforms/platforms.h"
#include "sim/counters.h"
#include "sim/vpu.h"

namespace {

using namespace vecfd;
using miniapp::TimeLoopResult;
using Metrics = std::map<std::string, double>;
using Report = std::map<std::string, Metrics>;

/// Relative drift --check tolerates on every metric: room for last-ulp
/// accumulation differences between compilers, none for a model change.
constexpr double kTolerance = 1e-6;

/// The transient points of every study section, measured in one
/// parallel_for_index fan-out.  Every point runs the cavity scenario.
class Study {
 public:
  /// Lists a point and returns its slot.  A point already listed (same
  /// mesh, config, machine and spin-up) keeps its slot, so it runs once.
  /// With @p spinup a first, unmeasured pass develops the flow, so every
  /// momentum component has real work — the regime the multi-RHS
  /// comparison must run in; run() resets the machine, so the second pass
  /// is an independent measurement of a developed flow.
  std::size_t add(const std::shared_ptr<const fem::Mesh>& mesh,
                  const sim::MachineConfig& machine,
                  const miniapp::TimeLoopConfig& cfg, bool spinup = false) {
    const std::uint64_t hash =
        miniapp::timeloop_config_hash("cavity", *mesh, cfg, machine);
    for (std::size_t i = 0; i < points_.size(); ++i) {
      if (points_[i].hash == hash && points_[i].spinup == spinup) return i;
    }
    points_.push_back({mesh, machine, cfg, spinup, hash});
    return points_.size() - 1;
  }

  void run() {
    results_.resize(points_.size());
    core::parallel_for_index(points_.size(), 0, [&](std::size_t i) {
      const Point& p = points_[i];
      miniapp::Scenario scen = miniapp::scenario_cavity();
      scen.mesh = p.mesh->config();
      miniapp::TimeLoop loop(*p.mesh, scen, p.cfg);
      sim::Vpu vpu(p.machine);
      if (p.spinup) (void)loop.run(vpu);
      results_[i] = loop.run(vpu);
    });
  }

  const TimeLoopResult& operator[](std::size_t slot) const {
    return results_[slot];
  }
  std::size_t size() const { return results_.size(); }

 private:
  struct Point {
    std::shared_ptr<const fem::Mesh> mesh;
    sim::MachineConfig machine;
    miniapp::TimeLoopConfig cfg;
    bool spinup;
    std::uint64_t hash;
  };
  std::vector<Point> points_;
  std::vector<TimeLoopResult> results_;
};

/// A study section's reduction, called once the fan-out has run.
using Section = std::function<Metrics(const Study&)>;

std::shared_ptr<const fem::Mesh> cavity_mesh(const fem::MeshConfig& mc) {
  return std::make_shared<const fem::Mesh>(mc);
}

const sim::Counters& phase9(const TimeLoopResult& r) {
  return r.phase[miniapp::kSolvePhase];
}
const sim::Counters& phase10(const TimeLoopResult& r) {
  return r.phase[miniapp::kPressurePhase];
}

/// Σ momentum iterations over steps and components (phase 9).
int momentum_iterations(const TimeLoopResult& r) {
  int n = 0;
  for (const auto& step : r.steps) {
    for (const auto& rep : step.momentum) n += rep.iterations;
  }
  return n;
}

/// Σ pressure iterations over steps (phase 10).
int pressure_iterations(const TimeLoopResult& r) {
  int n = 0;
  for (const auto& step : r.steps) n += step.pressure.iterations;
  return n;
}

double gate(bool met) { return met ? 1.0 : 0.0; }

/// Blocked vs per-component momentum solve on the cavity flow: operator
/// slab loads, AVL and phase-9 cycles per VECTOR_SIZE.  Slab loads come
/// from the phase-9 counters alone: in the per-component path every gather
/// pairs with one value + one index slab load (slab = 2 × indexed), and
/// the paths are per-column instruction-identical elsewhere, so the
/// blocked count is slab − Δ(unit loads).  That identity only holds when
/// the paths ran in lockstep (equal iteration and gather counts); a
/// divergence exits 1.  Gates: the worst slab reduction is ≥ 2.5× and the
/// AVL drifts by ≤ 2% — fusion must buy traffic, not occupancy.
Section multirhs(Study& study) {
  const auto mesh = cavity_mesh({.nx = 6, .ny = 6, .nz = 6});
  struct Pair {
    int vs;
    std::size_t per_component, blocked;
  };
  std::vector<Pair> pairs;
  for (const int vs : {64, 256}) {
    pairs.push_back(
        {vs,
         study.add(mesh, platforms::riscv_vec(),
                   {.steps = 2, .vector_size = vs, .blocked_momentum = false},
                   /*spinup=*/true),
         study.add(mesh, platforms::riscv_vec(),
                   {.steps = 2, .vector_size = vs}, /*spinup=*/true)});
  }
  return [pairs](const Study& s) {
    const int vlmax = platforms::riscv_vec().vlmax;
    Metrics m;
    double worst_redux = 1e30;
    double worst_avl_drift = 0.0;
    for (const Pair& p : pairs) {
      const sim::Counters& pc = phase9(s[p.per_component]);
      const sim::Counters& blk = phase9(s[p.blocked]);
      if (momentum_iterations(s[p.per_component]) !=
              momentum_iterations(s[p.blocked]) ||
          pc.vmem_indexed_instrs != blk.vmem_indexed_instrs) {
        std::cerr << "multirhs paths diverged at VS=" << p.vs
                  << " — slab accounting invalid\n";
        std::exit(1);
      }
      const double slab_pc = 2.0 * static_cast<double>(pc.vmem_indexed_instrs);
      const double slab_blk =
          slab_pc -
          static_cast<double>(pc.vmem_unit_instrs - blk.vmem_unit_instrs);
      const double redux = slab_blk > 0.0 ? slab_pc / slab_blk : 0.0;
      const double avl_pc = metrics::compute(pc, vlmax).avl;
      const double avl_blk = metrics::compute(blk, vlmax).avl;
      worst_redux = std::min(worst_redux, redux);
      worst_avl_drift = std::max(
          worst_avl_drift,
          avl_pc > 0.0 ? std::abs(avl_blk - avl_pc) / avl_pc : 0.0);
      const std::string tag = "vs" + std::to_string(p.vs);
      m["slab_redux_" + tag] = redux;
      // JSON metric key for the fixed phase-9 speedup headline, not a CSV
      // schema column:
      // vecfd-lint: allow(csv-phase-literal) fixed headline key, not a schema
      m["ph9_speedup_" + tag] = blk.total_cycles() > 0.0
                                    ? pc.total_cycles() / blk.total_cycles()
                                    : 0.0;
    }
    m["worst_slab_redux"] = worst_redux;
    m["worst_avl_drift"] = worst_avl_drift;
    m["gate_slab_redux"] = gate(worst_redux >= 2.5);
    m["gate_avl_drift"] = gate(worst_avl_drift <= 0.02);
    return m;
  };
}

/// ELL vs SELL+RCM on a shuffled-numbering cavity at VECTOR_SIZE 256 on
/// the two long-vector platforms, over the Krylov phases 9 and 10: cache
/// lines gathered per iteration, solve cycles, pad and coalesced lanes.
/// Residual histories are bit-identical across formats, so every ratio is
/// a pure storage/traffic effect.  Gate: on at least one machine with
/// vlmax ≥ 256, SELL+RCM gathers at most 0.7× ELL's lines per iteration
/// in fewer solve cycles.
Section format_sweep(Study& study) {
  const auto mesh = cavity_mesh(
      {.nx = 10, .ny = 10, .nz = 10, .shuffle_nodes = true});
  const int vs = 256;
  struct Pair {
    sim::MachineConfig machine;
    std::size_t ell, sell_rcm;
  };
  std::vector<Pair> pairs;
  for (const auto& machine :
       {platforms::riscv_vec(), platforms::sx_aurora()}) {
    pairs.push_back(
        {machine,
         study.add(mesh, machine, {.steps = 2, .vector_size = vs}),
         study.add(mesh, machine,
                   {.steps = 2, .vector_size = vs,
                    .format = solver::SpmvFormat::kSell,
                    .rcm_renumber = true})});
  }
  // Phases 9 and 10 summed (integer counters, so the sum is exact).
  const auto solve = [](const TimeLoopResult& r) {
    sim::Counters c = phase9(r);
    c += phase10(r);
    return c;
  };
  const auto lines_per_iteration = [solve](const TimeLoopResult& r) {
    const int it = momentum_iterations(r) + pressure_iterations(r);
    return it > 0 ? static_cast<double>(solve(r).gather_lines_touched) / it
                  : 0.0;
  };
  const auto cycles = [](const TimeLoopResult& r) {
    return phase9(r).total_cycles() + phase10(r).total_cycles();
  };
  const auto pad_fraction = [solve](const TimeLoopResult& r) {
    const sim::Counters c = solve(r);
    const double lanes = static_cast<double>(
        c.gather_lanes + c.pad_lanes + c.coalesced_lanes);
    return lanes > 0.0 ? static_cast<double>(c.pad_lanes) / lanes : 0.0;
  };
  return [=](const Study& s) {
    Metrics m;
    bool sell_rcm_wins = false;
    for (const Pair& p : pairs) {
      const TimeLoopResult& ell = s[p.ell];
      const TimeLoopResult& sell = s[p.sell_rcm];
      const double line_redux =
          lines_per_iteration(ell) > 0.0
              ? lines_per_iteration(sell) / lines_per_iteration(ell)
              : 0.0;
      const double cycle_ratio =
          cycles(ell) > 0.0 ? cycles(sell) / cycles(ell) : 0.0;
      const std::string& tag = p.machine.name;
      m["gather_line_redux_" + tag] = line_redux;
      m["solve_cycle_ratio_" + tag] = cycle_ratio;
      m["ell_pad_fraction_" + tag] = pad_fraction(ell);
      m["sell_rcm_pad_fraction_" + tag] = pad_fraction(sell);
      m["sell_rcm_coalesced_lanes_" + tag] =
          static_cast<double>(solve(sell).coalesced_lanes);
      sell_rcm_wins = sell_rcm_wins ||
                      (p.machine.vlmax >= vs && line_redux <= 0.7 &&
                       cycle_ratio < 1.0);
    }
    m["gate_sell_rcm_beats_ell"] = gate(sell_rcm_wins);
    return m;
  };
}

/// The three rungs of the pressure preconditioner ladder on a fixed 8³
/// cavity: pressure iterations and phase-10 cycles per rung, plus the
/// Jacobi-relative iteration reductions.  Gates: deflation needs at most
/// half the Jacobi iterations, and the rungs order deflate ≤ cheby ≤
/// jacobi.
Section precond_ladder(Study& study) {
  const auto mesh = cavity_mesh({.nx = 8, .ny = 8, .nz = 8});
  std::vector<std::pair<solver::PrecondKind, std::size_t>> rungs;
  for (const auto kind :
       {solver::PrecondKind::kJacobi, solver::PrecondKind::kCheby,
        solver::PrecondKind::kDeflate}) {
    rungs.emplace_back(
        kind, study.add(mesh, platforms::riscv_vec(),
                        {.steps = 2, .vector_size = 240, .precond = kind}));
  }
  return [rungs](const Study& s) {
    Metrics m;
    double jacobi_iters = 0.0;
    for (const auto& [kind, slot] : rungs) {
      const int iters = pressure_iterations(s[slot]);
      const std::string tag = solver::to_string(kind);
      m["pressure_iters_" + tag] = iters;
      m["pressure_cycles_" + tag] = phase10(s[slot]).total_cycles();
      if (kind == solver::PrecondKind::kJacobi) {
        jacobi_iters = iters;
      } else if (jacobi_iters > 0.0) {
        m["iter_redux_" + tag] = iters / jacobi_iters;
      }
    }
    const double jacobi = m.at("pressure_iters_jacobi");
    const double cheby = m.at("pressure_iters_cheby");
    const double deflate = m.at("pressure_iters_deflate");
    m["gate_deflate_halves_jacobi"] = gate(2.0 * deflate <= jacobi);
    m["gate_rungs_ordered"] = gate(deflate <= cheby && cheby <= jacobi);
    return m;
  };
}

/// The domain-decomposed pressure solve on a fixed 8³ cavity: BSP
/// makespan, halo volume and pressure iterations per shard count P, plus
/// the surface-to-volume ratio (halo lines over phase-10 gathered lines)
/// under refinement at P = 4 — at a 64-strip quantum, so every subdomain
/// is populated on both meshes.  Gates: pressure iterations do not depend
/// on P (fields and histories are bit-identical, DESIGN.md §9), the P = 8
/// makespan speed-up is ≥ 2, and the surface-to-volume ratio falls under
/// refinement.
Section shard_scaling(Study& study) {
  const auto mesh = cavity_mesh({.nx = 8, .ny = 8, .nz = 8});
  std::vector<std::pair<int, std::size_t>> strong;
  for (const int p : {1, 4, 8}) {
    strong.emplace_back(
        p, study.add(mesh, platforms::riscv_vec(),
                     {.steps = 2, .vector_size = 240, .shards = p}));
  }
  std::vector<std::pair<int, std::size_t>> refined;
  for (const int nref : {6, 8}) {
    refined.emplace_back(
        nref,
        study.add(cavity_mesh({.nx = nref, .ny = nref, .nz = nref}),
                  platforms::riscv_vec(),
                  {.steps = 2, .vector_size = 64, .shards = 4}));
  }
  const auto halo_lines = [](const TimeLoopResult& r) {
    return static_cast<double>(phase10(r).halo_lines_sent +
                               phase10(r).halo_lines_recv);
  };
  return [=](const Study& s) {
    Metrics m;
    double base_makespan = 0.0;
    for (const auto& [p, slot] : strong) {
      const TimeLoopResult& r = s[slot];
      const std::string tag = "p" + std::to_string(p);
      m["makespan_" + tag] = r.pressure_makespan_cycles;
      m["halo_lines_" + tag] = halo_lines(r);
      m["pressure_iters_" + tag] = pressure_iterations(r);
      if (p == 1) {
        base_makespan = r.pressure_makespan_cycles;
      } else if (r.pressure_makespan_cycles > 0.0) {
        m["makespan_speedup_" + tag] =
            base_makespan / r.pressure_makespan_cycles;
      }
      if (p == 8) {
        m["halo_messages_p8"] =
            static_cast<double>(phase10(r).halo_messages);
      }
    }
    for (const auto& [nref, slot] : refined) {
      const TimeLoopResult& r = s[slot];
      const auto owned = phase10(r).gather_lines_touched;
      m["s2v_ratio_" + std::to_string(nref)] =
          owned > 0 ? halo_lines(r) / static_cast<double>(owned) : 0.0;
    }
    m["gate_iters_p_independent"] =
        gate(m.at("pressure_iters_p1") == m.at("pressure_iters_p4") &&
             m.at("pressure_iters_p4") == m.at("pressure_iters_p8"));
    m["gate_makespan_speedup_p8"] = gate(m.at("makespan_speedup_p8") >= 2.0);
    m["gate_s2v_falls"] = gate(m.at("s2v_ratio_8") < m.at("s2v_ratio_6"));
    return m;
  };
}

/// The solve stage (phases 9–11) against the whole transient step, over
/// every point the other sections list: its smallest and largest share
/// of cycles and the number of points where it is the majority.  The
/// stage does not dominate every step; the gate states what holds on all
/// of them: it takes between 2/5 and 7/10 of the cycles.
Metrics solve_stage(const Study& s) {
  Metrics m;
  double lo = 1.0;
  double hi = 0.0;
  int majority = 0;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const TimeLoopResult& r = s[i];
    double solve = 0.0;
    for (const int p : {miniapp::kSolvePhase, miniapp::kPressurePhase,
                        miniapp::kCorrectionPhase}) {
      solve += r.phase[p].total_cycles();
    }
    const double share = solve / r.cycles;
    lo = std::min(lo, share);
    hi = std::max(hi, share);
    majority += share > 0.5 ? 1 : 0;
  }
  m["share_min"] = lo;
  m["share_max"] = hi;
  m["majority_points"] = majority;
  m["points"] = static_cast<double>(s.size());
  m["gate_share_40_to_70_pct"] = gate(lo >= 0.4 && hi <= 0.7);
  return m;
}

/// The paper scorecard: every row's modelled value, shape verdicts as 1/0,
/// so any move of a modelled paper number is drift.
Metrics measure_paper_scorecard() {
  const bench::scorecard::Evidence e = bench::scorecard::measure();
  Metrics m;
  for (const auto& row : bench::scorecard::kRows) m[row.key] = row.model(e);
  return m;
}

void write_json(std::ostream& os, const Report& report) {
  os << "{\n  \"schema\": \"vecfd-bench-v1\",\n  \"benches\": {\n";
  bool first_bench = true;
  for (const auto& [bench, metrics] : report) {
    if (!first_bench) os << ",\n";
    first_bench = false;
    os << "    \"" << bench << "\": {\n";
    bool first = true;
    for (const auto& [key, value] : metrics) {
      if (!first) os << ",\n";
      first = false;
      char buf[64];
      std::snprintf(buf, sizeof buf, "%.12g", value);
      os << "      \"" << key << "\": " << buf;
    }
    os << "\n    }";
  }
  os << "\n  }\n}\n";
}

struct Baseline {
  Report report;
  bool schema_ok = false;  ///< carried the "vecfd-bench-v1" schema marker
  std::string parse_error;  ///< non-empty: corrupt line (exit-2 contract)

  std::size_t num_metrics() const {
    std::size_t n = 0;
    for (const auto& [bench, metrics] : report) n += metrics.size();
    return n;
  }
};

/// Minimal reader for the exact shape write_json emits: "key": number
/// pairs nested two levels deep.  Not a general JSON parser — it only has
/// to round-trip our own files.  A nested bench opens ONLY on a line whose
/// value is "{" — a "key": value line whose value fails to parse as a
/// number is a corrupt baseline (parse_error), never silently treated as
/// an opener (that bug used to swallow every later metric into a
/// phantom bench and report them all MISSING).  A non-finite value
/// ("nan", "inf") is corrupt too: no measurement could be checked
/// against it.
std::optional<Baseline> read_json(const std::string& path) {
  std::ifstream is(path);
  if (!is) return std::nullopt;
  Baseline baseline;
  std::string bench;
  std::string line;
  while (std::getline(is, line)) {
    const auto q1 = line.find('"');
    if (q1 == std::string::npos) continue;
    const auto q2 = line.find('"', q1 + 1);
    if (q2 == std::string::npos) continue;
    const std::string key = line.substr(q1 + 1, q2 - q1 - 1);
    if (key == "schema") {
      baseline.schema_ok =
          line.find("\"vecfd-bench-v1\"", q2 + 1) != std::string::npos;
      continue;
    }
    if (key == "benches") continue;
    const auto colon = line.find(':', q2);
    if (colon == std::string::npos) continue;
    const auto last = line.find_last_not_of(" \t\r");
    if (last != std::string::npos && line[last] == '{') {
      bench = key;  // a nested object opens: "<bench>": {
      continue;
    }
    const std::string rest = line.substr(colon + 1);
    char* end = nullptr;
    const double v = std::strtod(rest.c_str(), &end);
    if (end == rest.c_str()) {
      baseline.parse_error = "unparseable metric value in line: " + line;
      return baseline;
    }
    if (!std::isfinite(v)) {
      baseline.parse_error = "non-finite metric value in line: " + line;
      return baseline;
    }
    baseline.report[bench][key] = v;
  }
  return baseline;
}

/// Baseline-file contract, enforced BEFORE any measurement runs: a missing,
/// unreadable or corrupt baseline is a usage error (exit 2, offending path
/// on stderr), distinct from measured drift (exit 1) — CI must not spend a
/// measurement pass to discover a broken checkout, and a truncated
/// BENCH_PR5.json must not masquerade as "everything drifted".
std::optional<Baseline> load_baseline(const std::string& path) {
  auto baseline = read_json(path);
  if (!baseline) {
    std::cerr << "bench_to_json: cannot read baseline " << path << '\n';
    return std::nullopt;
  }
  if (!baseline->parse_error.empty()) {
    std::cerr << "bench_to_json: corrupt baseline " << path << ": "
              << baseline->parse_error << '\n';
    return std::nullopt;
  }
  if (!baseline->schema_ok) {
    std::cerr << "bench_to_json: corrupt baseline " << path
              << ": missing \"schema\": \"vecfd-bench-v1\" marker\n";
    return std::nullopt;
  }
  if (baseline->num_metrics() == 0) {
    std::cerr << "bench_to_json: corrupt baseline " << path
              << ": no numeric metrics\n";
    return std::nullopt;
  }
  return baseline;
}

int check(const Report& got, const Report& want) {
  int bad = 0;
  for (const auto& [bench, metrics] : want) {
    for (const auto& [key, w] : metrics) {
      const auto bi = got.find(bench);
      if (bi == got.end() || bi->second.find(key) == bi->second.end()) {
        std::cerr << "MISSING  " << bench << '.' << key << '\n';
        ++bad;
        continue;
      }
      const double g = bi->second.at(key);
      // Written so that a NaN on either side is drift, never a pass.
      if (!(std::abs(g - w) <= kTolerance * (1.0 + std::abs(w)))) {
        std::cerr << "DRIFT    " << bench << '.' << key << ": baseline "
                  << w << ", measured " << g << '\n';
        ++bad;
      }
    }
  }
  for (const auto& [bench, metrics] : got) {
    for (const auto& [key, value] : metrics) {
      (void)value;
      const auto bi = want.find(bench);
      if (bi == want.end() || bi->second.find(key) == bi->second.end()) {
        std::cerr << "NEW      " << bench << '.' << key
                  << " (not in baseline — regenerate with --out)\n";
        ++bad;
      }
    }
  }
  return bad;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path;
  std::string check_path;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--out" || a == "--check") {
      if (i + 1 == argc) {
        std::cerr << "bench_to_json: " << a << ": missing value\n";
        return 2;
      }
      (a == "--out" ? out_path : check_path) = argv[++i];
    } else {
      std::cerr << "usage: bench_to_json (--out FILE | --check FILE)\n";
      return a == "--help" || a == "-h" ? 0 : 2;
    }
  }
  if (out_path.empty() == check_path.empty()) {
    std::cerr << "bench_to_json: pass exactly one of --out / --check\n";
    return 2;
  }

  // Validate the baseline before the measurement pass: a broken file must
  // fail fast (exit 2) instead of after minutes of simulation.
  std::optional<Baseline> baseline;
  if (!check_path.empty()) {
    baseline = load_baseline(check_path);
    if (!baseline) return 2;
  }

  Study study;
  const std::map<std::string, Section> sections = {
      {"multirhs_speedup", multirhs(study)},
      {"spmv_format_sweep", format_sweep(study)},
      {"precond_ladder", precond_ladder(study)},
      {"shard_scaling", shard_scaling(study)},
      {"solve_stage", solve_stage},
  };
  // The scorecard pass runs first: run after the study fan-out, it took
  // ~10 s longer on a 4-core Xeon host, at identical results.
  Report report;
  report["paper_scorecard"] = measure_paper_scorecard();
  study.run();
  for (const auto& [name, reduce] : sections) report[name] = reduce(study);

  if (!out_path.empty()) {
    std::ofstream os(out_path);
    if (!os) {
      std::cerr << "cannot open " << out_path << '\n';
      return 2;
    }
    write_json(os, report);
    std::cout << "wrote " << out_path << '\n';
    return 0;
  }

  const int bad = check(report, baseline->report);
  if (bad > 0) {
    std::cerr << bad << " metric(s) drifted from " << check_path << '\n';
    return 1;
  }
  std::cout << "all metrics within " << kTolerance << " of " << check_path
            << '\n';
  return 0;
}
