// bench_to_json — perf-trajectory baseline emitter.
//
// Runs the measurement cores of bench/multirhs_speedup,
// bench/spmv_format_sweep, bench/precond_ladder and bench/shard_scaling
// (helpers shared in bench/bench_metrics.h) and every row of the paper
// scorecard (bench/paper_scorecard.h) on a FIXED workload — independent
// of VECFD_BENCH_SMALL, so the checked-in baseline and any CI run measure
// the same thing — and serializes the scalar metrics as JSON:
//
//   { "schema": "vecfd-bench-v1",
//     "benches": { "<bench>": { "<metric>": <number>, ... }, ... } }
//
// Modes:
//   bench_to_json --out FILE          write the baseline (the PR workflow:
//                                     regenerate, review the diff, commit)
//   bench_to_json --check FILE        re-measure and compare against FILE
//                                     within --tolerance (default 1e-6
//                                     relative); exit 1 on drift or missing
//                                     metrics — the CI guard that keeps
//                                     BENCH_PR5.json honest
//   bench_to_json --counters-out FILE dump every sim::Counters registry
//                                     counter of a fixed tiny transient run
//                                     ("vecfd-counters-v1").  Generated from
//                                     the VECFD_COUNTERS X-macro via
//                                     Counters::visit(), so a counter added
//                                     to the registry lands here with no
//                                     wiring — and a hand-kept metric list
//                                     here is a vecfd-lint counter-registry
//                                     finding.
//
// The simulation is deterministic, so drift beyond last-ulp accumulation
// differences between compilers means a real perf change: regenerate the
// baseline in the same PR and let the reviewer see the trajectory.
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>

#include "bench_metrics.h"
#include "paper_scorecard.h"
#include "fem/mesh.h"
#include "miniapp/scenarios.h"
#include "miniapp/time_loop.h"
#include "platforms/platforms.h"
#include "sim/counters.h"

namespace {

using namespace vecfd;
using Metrics = std::map<std::string, double>;
using Report = std::map<std::string, Metrics>;

/// multirhs_speedup core: blocked vs per-component momentum solve on the
/// cavity flow, worst slab reduction / AVL drift over the studied sizes.
Metrics measure_multirhs() {
  miniapp::Scenario scen = miniapp::scenario_cavity();
  scen.mesh = {.nx = 6, .ny = 6, .nz = 6};
  const fem::Mesh mesh(scen.mesh);
  const int steps = 2;
  Metrics m;
  double worst_redux = 1e30;
  double worst_avl_drift = 0.0;
  for (const int vs : {64, 256}) {
    const auto pc = bench::run_transient_point(
        mesh, scen, platforms::riscv_vec(),
        {.steps = steps, .vector_size = vs, .blocked_momentum = false},
        /*spinup=*/true);
    const auto blk = bench::run_transient_point(
        mesh, scen, platforms::riscv_vec(),
        {.steps = steps, .vector_size = vs}, /*spinup=*/true);
    // the same slab-accounting identity bench/multirhs_speedup prints
    const bench::SlabComparison cmp = bench::compare_slab_traffic(pc, blk);
    if (!cmp.valid) {
      std::cerr << "multirhs paths diverged at VS=" << vs
                << " — slab accounting invalid\n";
      std::exit(1);
    }
    worst_redux = std::min(worst_redux, cmp.redux);
    worst_avl_drift = std::max(worst_avl_drift, cmp.avl_drift);
    const std::string tag = "vs" + std::to_string(vs);
    m["slab_redux_" + tag] = cmp.redux;
    // JSON metric key for the fixed phase-9 speedup headline, not a CSV
    // schema column:
    // vecfd-lint: allow(csv-phase-literal) fixed headline key, not a schema
    m["ph9_speedup_" + tag] =
        blk.cycles > 0.0 ? pc.cycles / blk.cycles : 0.0;
  }
  m["worst_slab_redux"] = worst_redux;
  m["worst_avl_drift"] = worst_avl_drift;
  return m;
}

/// spmv_format_sweep core: ell vs sell(+rcm) on a shuffled-numbering
/// cavity at VS 256 on the two long-vector platforms.
Metrics measure_format_sweep() {
  miniapp::Scenario scen = miniapp::scenario_cavity();
  scen.mesh = {.nx = 10, .ny = 10, .nz = 10, .shuffle_nodes = true};
  const fem::Mesh mesh(scen.mesh);
  const int steps = 2;
  const int vs = 256;
  Metrics m;
  for (const auto& machine :
       {platforms::riscv_vec(), platforms::sx_aurora()}) {
    const auto ell = bench::run_transient_point(
        mesh, scen, machine, {.steps = steps, .vector_size = vs},
        /*spinup=*/false);
    const auto sell_rcm = bench::run_transient_point(
        mesh, scen, machine,
        {.steps = steps, .vector_size = vs,
         .format = solver::SpmvFormat::kSell, .rcm_renumber = true},
        /*spinup=*/false);
    const std::string tag = machine.name;
    m["gather_line_redux_" + tag] =
        ell.gather_lines_per_iteration() > 0.0
            ? sell_rcm.gather_lines_per_iteration() /
                  ell.gather_lines_per_iteration()
            : 0.0;
    m["solve_cycle_ratio_" + tag] =
        ell.solve_cycles() > 0.0
            ? sell_rcm.solve_cycles() / ell.solve_cycles()
            : 0.0;
    m["ell_pad_fraction_" + tag] = ell.pad_fraction();
    m["sell_rcm_pad_fraction_" + tag] = sell_rcm.pad_fraction();
    m["sell_rcm_coalesced_lanes_" + tag] =
        // vecfd-lint: allow(counter-registry) SolveStats field, not Counters
        static_cast<double>(sell_rcm.coalesced_lanes);
  }
  return m;
}

/// precond_ladder core: the three rungs of the pressure preconditioner
/// ladder (DESIGN.md §8) on a fixed 8^3 cavity — pressure iterations and
/// phase-10 cycles per rung plus the Jacobi-relative iteration reductions
/// the bench gates on.
Metrics measure_precond_ladder() {
  miniapp::Scenario scen = miniapp::scenario_cavity();
  scen.mesh = {.nx = 8, .ny = 8, .nz = 8};
  const fem::Mesh mesh(scen.mesh);
  const int steps = 2;
  const int vs = 240;
  Metrics m;
  double jacobi_iters = 0.0;
  for (const auto kind :
       {solver::PrecondKind::kJacobi, solver::PrecondKind::kCheby,
        solver::PrecondKind::kDeflate}) {
    const auto st = bench::run_transient_point(
        mesh, scen, platforms::riscv_vec(),
        {.steps = steps, .vector_size = vs, .precond = kind},
        /*spinup=*/false);
    const std::string tag = solver::to_string(kind);
    m["pressure_iters_" + tag] = st.pressure_iterations;
    m["pressure_cycles_" + tag] = st.cycles_p10;
    if (kind == solver::PrecondKind::kJacobi) {
      jacobi_iters = st.pressure_iterations;
    } else if (jacobi_iters > 0.0) {
      m["iter_redux_" + tag] = st.pressure_iterations / jacobi_iters;
    }
  }
  return m;
}

/// shard_scaling core (DESIGN.md §9): the domain-decomposed pressure solve
/// on a fixed 8^3 cavity — BSP makespan and halo volume vs shard count,
/// plus the surface-to-volume ratio under refinement at fixed P.  The
/// pressure iteration counts are emitted per P so the baseline itself
/// documents the P-independence contract (they must all be equal).
Metrics measure_shard_scaling() {
  miniapp::Scenario scen = miniapp::scenario_cavity();
  scen.mesh = {.nx = 8, .ny = 8, .nz = 8};
  const fem::Mesh mesh(scen.mesh);
  const int steps = 2;
  const int vs = 240;
  Metrics m;
  double base_makespan = 0.0;
  for (const int p : {1, 4, 8}) {
    const auto st = bench::run_transient_point(
        mesh, scen, platforms::riscv_vec(),
        {.steps = steps, .vector_size = vs, .shards = p}, /*spinup=*/false);
    char tagbuf[16];
    std::snprintf(tagbuf, sizeof tagbuf, "p%d", p);
    const std::string tag = tagbuf;
    m["makespan_" + tag] = st.pressure_makespan;
    m["halo_lines_" + tag] = static_cast<double>(st.halo_lines);
    m["pressure_iters_" + tag] = st.pressure_iterations;
    if (p == 1) {
      base_makespan = st.pressure_makespan;
    } else if (st.pressure_makespan > 0.0) {
      m["makespan_speedup_" + tag] = base_makespan / st.pressure_makespan;
    }
    if (p == 8) {
      // vecfd-lint: allow(counter-registry) SolveStats field, not Counters
      m["halo_messages_p8"] = static_cast<double>(st.halo_messages);
    }
  }
  // Surface-to-volume under refinement, 4 shards at a 64-strip quantum
  // (all subdomains populated on both meshes — see bench/shard_scaling).
  for (const int nref : {6, 8}) {
    scen.mesh = {.nx = nref, .ny = nref, .nz = nref};
    const fem::Mesh rmesh(scen.mesh);
    const auto st = bench::run_transient_point(
        rmesh, scen, platforms::riscv_vec(),
        {.steps = steps, .vector_size = 64, .shards = 4}, /*spinup=*/false);
    const std::string rtag = std::to_string(nref);
    m["s2v_ratio_" + rtag] =
        st.p10_gather_lines > 0
            ? static_cast<double>(st.halo_lines) /
                  static_cast<double>(st.p10_gather_lines)
            : 0.0;
  }
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

/// --counters-out: every registered counter of one fixed tiny transient
/// run, emitted in registry order straight from Counters::visit().  The
/// metric set IS the registry — there is no list here to forget to extend.
int write_counter_totals(const std::string& path) {
  miniapp::Scenario scen = miniapp::scenario_cavity();
  scen.mesh = {.nx = 4, .ny = 4, .nz = 4};
  const fem::Mesh mesh(scen.mesh);
  miniapp::TimeLoopConfig cfg;
  cfg.steps = 1;
  cfg.vector_size = 64;
  miniapp::TimeLoop loop(mesh, scen, cfg);
  sim::Vpu vpu(platforms::riscv_vec());
  const auto res = loop.run(vpu);

  std::ofstream os(path);
  if (!os) {
    std::cerr << "cannot open " << path << '\n';
    return 2;
  }
  os << "{\n  \"schema\": \"vecfd-counters-v1\",\n"
     << "  \"workload\": \"cavity 4x4x4, 1 step, vs=64, riscv-vec\",\n"
     << "  \"counters\": {\n";
  bool first = true;
  res.total.visit([&](const sim::CounterInfo& info, const auto& v) {
    if (!first) os << ",\n";
    first = false;
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.12g", static_cast<double>(v));
    os << "    \"" << info.name << "\": " << buf;
  });
  os << "\n  }\n}\n";
  std::cout << "wrote " << path << '\n';
  return 0;
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

int check(const Report& got, const Report& want, double tolerance) {
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
      if (!(std::abs(g - w) <= tolerance * (1.0 + std::abs(w)))) {
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
  std::string counters_path;
  double tolerance = 1e-6;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (a == "--out") {
      const char* v = next();
      if (!v) {
        std::cerr << "bench_to_json: --out: missing value\n";
        return 2;
      }
      out_path = v;
    } else if (a == "--check") {
      const char* v = next();
      if (!v) {
        std::cerr << "bench_to_json: --check: missing value\n";
        return 2;
      }
      check_path = v;
    } else if (a == "--counters-out") {
      const char* v = next();
      if (!v) {
        std::cerr << "bench_to_json: --counters-out: missing value\n";
        return 2;
      }
      counters_path = v;
    } else if (a == "--tolerance") {
      const char* v = next();
      if (!v) {
        std::cerr << "bench_to_json: --tolerance: missing value\n";
        return 2;
      }
      char* end = nullptr;
      tolerance = std::strtod(v, &end);
      if (end == v || *end != '\0' || !std::isfinite(tolerance) ||
          tolerance < 0.0) {
        std::cerr << "bench_to_json: --tolerance: invalid value '" << v
                  << "' (want a non-negative relative tolerance)\n";
        return 2;
      }
    } else {
      std::cerr << "usage: bench_to_json (--out FILE | --check FILE | "
                   "--counters-out FILE) [--tolerance REL]\n";
      return a == "--help" || a == "-h" ? 0 : 2;
    }
  }
  if (!counters_path.empty()) {
    if (!out_path.empty() || !check_path.empty()) {
      std::cerr << "bench_to_json: --counters-out excludes --out / --check\n";
      return 2;
    }
    return write_counter_totals(counters_path);
  }
  if (out_path.empty() == check_path.empty()) {
    std::cerr << "bench_to_json: pass exactly one of --out / --check / "
                 "--counters-out\n";
    return 2;
  }

  // Validate the baseline before the measurement pass: a broken file must
  // fail fast (exit 2) instead of after minutes of simulation.
  std::optional<Baseline> baseline;
  if (!check_path.empty()) {
    baseline = load_baseline(check_path);
    if (!baseline) return 2;
  }

  Report report;
  report["multirhs_speedup"] = measure_multirhs();
  report["paper_scorecard"] = measure_paper_scorecard();
  report["spmv_format_sweep"] = measure_format_sweep();
  report["precond_ladder"] = measure_precond_ladder();
  report["shard_scaling"] = measure_shard_scaling();

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

  const int bad = check(report, baseline->report, tolerance);
  if (bad > 0) {
    std::cerr << bad << " metric(s) drifted from " << check_path << '\n';
    return 1;
  }
  std::cout << "all metrics within " << tolerance << " of " << check_path
            << '\n';
  return 0;
}
