// SpMV format sweep — the sparse-format co-design study (DESIGN.md §6):
// csr-host / ell / sell / sell+rcm × long-vector platforms × VECTOR_SIZE on
// a production-like (shuffled-numbering) cavity flow, comparing per Krylov
// iteration the simulated solve cycles, the distinct x-cache-lines gathered
// (the locality the formats fight over), the pad-lane fraction and AVL.
//
// Residual histories are bit-identical across formats (the equivalence
// suite asserts it), so every ratio below is a pure storage/traffic effect
// at IDENTICAL numerics — the co-design comparison the paper's methodology
// demands.
//
// Acceptance (exit 1 on failure): at VECTOR_SIZE ≥ 256 on at least one
// long-vector platform, sell+rcm gathers ≥ 30% fewer cache lines per solve
// iteration than the ELL baseline AND reduces simulated phase-9/10 cycles.
#include "bench_common.h"

#include <string>

#include "bench_metrics.h"

int main() {
  using namespace vecfd;
  std::cout << core::banner("SpMV format sweep",
                            "csr-host/ell/sell x platform x VECTOR_SIZE: "
                            "gathered lines, pad lanes, solve cycles");

  miniapp::Scenario scen = miniapp::scenario_cavity();
  // Production numbering: shuffled nodes (unstructured-like), the regime
  // renumbering exists for.  The mesh must dwarf one strip or every gather
  // trivially touches most of x.
  scen.mesh = {.nx = 12, .ny = 12, .nz = 12};
  // even the small mesh must keep nodes ≫ vlmax·(doubles per line), or the
  // VS=256 strips span most of x and no numbering can cut gathered lines
  if (bench::small_run()) scen.mesh = {.nx = 10, .ny = 10, .nz = 10};
  scen.mesh.shuffle_nodes = true;
  const fem::Mesh mesh(scen.mesh);
  const int steps = 2;
  std::cout << "scenario " << scen.name << " (shuffled numbering): "
            << mesh.num_elements() << " hex elements, " << mesh.num_nodes()
            << " nodes, " << steps << " steps"
            << (bench::small_run() ? " (VECFD_BENCH_SMALL)" : "") << "\n\n";

  const sim::MachineConfig machines[] = {platforms::riscv_vec(),
                                         platforms::sx_aurora(),
                                         platforms::mn4_avx512()};
  const int sizes[] = {64, 256, 512};

  core::Table t({"machine", "VS", "format", "solve cyc/it", "gl/it",
                 "gl redux", "pad frac", "coalesced", "AVL"});
  bool accepted = false;
  for (const auto& machine : machines) {
    for (const int vs : sizes) {
      double ell_gl = 0.0;
      double ell_cycles = 0.0;
      for (const auto& c : bench::kFormatCases) {
        const auto st = bench::run_transient_point(
            mesh, scen, machine,
            {.steps = steps, .vector_size = vs, .format = c.format,
             .rcm_renumber = c.rcm},
            /*spinup=*/false);
        const double gl_it = st.gather_lines_per_iteration();
        const double cyc_it =
            st.solve_iterations() > 0
                ? st.solve_cycles() / st.solve_iterations()
                : 0.0;
        if (std::string(c.name) == "ell") {
          ell_gl = gl_it;
          ell_cycles = cyc_it;
        }
        const bool vs_ok = vs >= 256 && machine.vlmax >= 256;
        const double redux = ell_gl > 0.0 ? gl_it / ell_gl : 0.0;
        if (std::string(c.name) == "sell+rcm" && vs_ok && redux <= 0.7 &&
            cyc_it < ell_cycles) {
          accepted = true;
        }
        t.add_row({machine.name, std::to_string(vs), c.name,
                   core::fmt(cyc_it, 0), core::fmt(gl_it, 0),
                   ell_gl > 0.0 ? core::fmt(redux, 2) + "x" : "-",
                   core::fmt_pct(st.pad_fraction()),
                   std::to_string(st.coalesced_lanes),
                   core::fmt(st.avl, 1)});
      }
    }
  }
  std::cout << t.to_string();
  std::cout << "\nreading guide: on a shuffled (production-like) numbering "
               "the ELL mirror gathers x from nearly one cache line per "
               "lane; σ-sorted SELL sheds the pad lanes and RCM packs each "
               "strip's columns into a band, so sell+rcm must cut the "
               "gathered lines per solve iteration by >= 30% at long "
               "vector lengths (acceptance"
            << (accepted ? " met" : " NOT met") << ").\n";
  return accepted ? 0 : 1;
}
