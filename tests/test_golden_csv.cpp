// Golden-file regression of the sweep and campaign CSV schemas and values.
//
// Small workloads are serialized and compared against checked-in
// goldens:
//
//   * tests/golden/sweep_small.csv — an assembly + phase-9 solve sweep
//     through core::write_csv;
//   * tests/golden/campaign_small.csv — a fault-tolerant transient
//     campaign through core::write_campaign_csv, including a sharded
//     sell+rcm point and a degraded retry row;
//   * tests/golden/sharded_cg_counters.csv — every registered counter of
//     each shard Vpu and of the coordinator, plus the BSP makespan, of a
//     direct solver::ShardedCg solve at P ∈ {2, 4};
//   * tests/golden/bicgstab_counters.csv — every exit of the host and
//     instrumented BiCGStab solvers (single-RHS and blocked), per format
//     and machine: per-column reports, a hash of x and the histories, and
//     every registered counter of the Vpu solves;
//   * tests/golden/cg_counters.csv — every exit and ladder rung of the
//     instrumented vcg per format and machine, and every BLAS-1 solve
//     kernel at an odd length: reports or results, a hash of the outputs
//     and every registered counter;
//   * tests/golden/assembly_counters.csv — every registered counter of
//     assembly phases 0–8 and a hash of the assembled rhs and matrix, over
//     4 platforms × 5 optimization levels × 2 VECTOR_SIZEs × 2 schemes.
//     The grid drives the vector and the scalar lane form of every
//     assembly subkernel (checked by GoldenAssemblyCounters.
//     GridDrivesBothLaneFormsOfEverySubkernel).
//   * tests/golden/vpu_isa_counters.csv — every instruction sim::Vpu
//     issues, per platform, vector length and phase, plus each misuse's
//     exception: hashes of the results and of the observer stream, and
//     every registered counter of the total and of each phase.
//
// For each golden:
//
//   * the SCHEMA (header row) must match byte for byte — any column
//     addition/rename/reorder is a deliberate, reviewed change;
//   * the VALUES are tolerance-compared per cell (numeric cells within
//     1e-9 relative, everything else exactly), so last-ulp timing noise
//     across compilers doesn't flake while real counter regressions fail.
//     The counter goldens are the exception: they pin the instruction
//     streams (and the BSP epoch structure of the sharded solve), so their
//     values (written at %.17g) must match bitwise.
//
// Updating the golden is deliberate: run the test binary with
// `--regen-golden` and commit the rewritten file.
//
// This suite links plain GTest (no gtest_main): the custom main owns the
// --regen-golden flag.  The exact-value comparison is skipped under ASan
// and TSan, whose allocators break the 128-byte-aligned deterministic
// memory model (see sanitizer_support.h); the schema check always runs.
// The ISA golden is the exception: its buffers live on the stack, so its
// values are checked in sanitizer builds too.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iterator>
#include <map>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "core/campaign.h"
#include "core/csv.h"
#include "fem/mesh.h"
#include "fem/partition.h"
#include "fem/projection.h"
#include "fem/shape.h"
#include "miniapp/driver.h"
#include "miniapp/time_loop.h"
#include "platforms/platforms.h"
#include "sim/fault_injection.h"
#include "solver/krylov.h"
#include "solver/sharding.h"
#include "solver/vkernels.h"
#include "sanitizer_support.h"
#include "support/host_bicgstab.h"

namespace {

using namespace vecfd;

/// The golden workload: small mesh, two VECTOR_SIZEs x two optimization
/// levels, semi-implicit with the chained phase-9 solve, serial (jobs=1)
/// so the golden never depends on the host's core count.
std::string generate_sweep_csv() {
  const fem::Mesh mesh({.nx = 4, .ny = 4, .nz = 2});
  const fem::State state(mesh);
  const core::Experiment ex(mesh, state);
  miniapp::MiniAppConfig cfg;
  cfg.scheme = fem::Scheme::kSemiImplicit;
  cfg.run_solve = true;
  const int sizes[] = {16, 64};
  const miniapp::OptLevel levels[] = {miniapp::OptLevel::kVanilla,
                                      miniapp::OptLevel::kVec1};
  const auto ms =
      ex.sweep_grid(platforms::riscv_vec(), cfg, sizes, levels, /*jobs=*/1);
  std::ostringstream os;
  core::write_csv(os, ms);
  return os.str();
}

/// The campaign golden workload: {cavity, taylor-green} x {riscv-vec,
/// riscv-vec-scalar} x VECTOR_SIZE 64, one step on a 3^3 mesh, serial.
/// The taylor-green/riscv-vec point runs sharded (2 shards, sell+rcm);
/// point 0 takes an injected breakdown and, with one retry, lands as a
/// `degraded` row on the next rung of the ladder.
std::string generate_campaign_csv() {
  std::vector<miniapp::Scenario> scens = {
      miniapp::scenario_by_name("cavity"),
      miniapp::scenario_by_name("taylor-green")};
  for (miniapp::Scenario& s : scens) s.mesh.nx = s.mesh.ny = s.mesh.nz = 3;
  const core::Campaign camp(std::move(scens));
  const sim::MachineConfig machines[] = {platforms::riscv_vec(),
                                         platforms::riscv_vec_scalar()};
  const int sizes[] = {64};
  std::vector<core::CampaignPoint> points =
      camp.grid(machines, sizes, /*steps=*/1);
  points[2].shards = 2;
  points[2].format = solver::SpmvFormat::kSell;
  points[2].rcm_renumber = true;
  sim::FaultPlan plan = sim::FaultPlan::parse("breakdown@0.0");
  plan.materialize(static_cast<int>(points.size()), 1);
  core::CampaignFtOptions opts;
  opts.faults = &plan;
  opts.retry.max_retries = 1;
  const auto outcomes = camp.run_points_ft(points, opts, /*jobs=*/1);
  std::ostringstream os;
  core::write_campaign_csv(os, outcomes);
  return os.str();
}

std::string format_cell(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string format_cell(std::uint64_t v) { return std::to_string(v); }

/// The cavity pressure Poisson operator of @p mesh, node 0 pinned.
solver::CsrMatrix pinned_pressure_laplacian(const fem::Mesh& mesh) {
  solver::CsrMatrix a =
      fem::assemble_pressure_laplacian(mesh, fem::ShapeTable{});
  const std::vector<int> pins = {0};
  fem::pin_dirichlet(a, pins);
  return a;
}

/// The sharded counter golden workload: a pinned 6^3 pressure Poisson
/// system solved by solver::ShardedCg on riscv-vec at VECTOR_SIZE 64 for
/// P ∈ {2, 4}.  One row per Vpu (shard 0..P-1, then the coordinator) with
/// the solve's BSP makespan and every registered counter.
std::string generate_sharded_counters_csv() {
  const fem::Mesh mesh({.nx = 6, .ny = 6, .nz = 6});
  const solver::CsrMatrix a = pinned_pressure_laplacian(mesh);
  std::vector<double> b(static_cast<std::size_t>(mesh.num_nodes()), 0.0);
  for (std::size_t i = 1; i < b.size(); ++i) {
    b[i] = 1.0 + 0.25 * std::sin(static_cast<double>(i));
  }
  const sim::MachineConfig machine = platforms::riscv_vec();
  const int vs = 64;
  const int quantum = solver::solve_effective_strip(vs, machine);

  std::ostringstream os;
  os << "shards,vpu,makespan_cycles";
  sim::Counters::visit_fields(
      [&](const sim::CounterInfo& info) { os << ',' << info.name; });
  os << '\n';
  for (const int shards : {2, 4}) {
    fem::MeshPartition part = fem::partition_mesh(mesh, shards, quantum);
    solver::ShardedCg scg(std::move(part.plan), a, machine, vs,
                          miniapp::kPressurePhase);
    sim::Vpu coord(machine);
    std::vector<double> x(b.size(), 0.0);
    {
      sim::ScopedPhase scope(coord.profiler(), miniapp::kPressurePhase);
      scg.solve(coord, b, x, solver::SolveOptions{});
    }
    const auto row = [&](const std::string& who, const sim::Vpu& vpu) {
      os << shards << ',' << who << ',' << format_cell(scg.makespan_cycles());
      vpu.counters().visit([&](const sim::CounterInfo&, const auto& v) {
        os << ',' << format_cell(v);
      });
      os << '\n';
    };
    for (int p = 0; p < shards; ++p) {
      row("shard" + std::to_string(p), scg.shard_vpu(p));
    }
    row("coord", coord);
  }
  return os.str();
}

/// A deterministic nonsymmetric, diagonally dominant n×n system: a
/// convection-biased chain (−1.3 below, −0.7 above the diagonal) plus one
/// scattered long-range coupling per row, so the SpMV gathers off-strip.
/// Row @p zero_diag_row (if ≥ 0) gets a zero diagonal: the Jacobi setup
/// failure exit.
solver::CsrMatrix golden_nonsymmetric(int n, int zero_diag_row) {
  std::vector<std::vector<int>> adj(static_cast<std::size_t>(n));
  for (int r = 0; r < n; ++r) {
    auto& row = adj[static_cast<std::size_t>(r)];
    if (r > 0) row.push_back(r - 1);
    if (r + 1 < n) row.push_back(r + 1);
    row.push_back((r * 37 + 11) % n);
  }
  solver::CsrMatrix a(adj);
  for (int r = 0; r < n; ++r) {
    if (r > 0) a.add(r, r - 1, -1.3);
    if (r + 1 < n) a.add(r, r + 1, -0.7);
    const int far = (r * 37 + 11) % n;
    if (far != r) a.add(r, far, -0.25 * (1.0 + std::sin(r)));
    if (r != zero_diag_row) a.add(r, r, 4.0 + 0.1 * (r % 7));
  }
  return a;
}

/// FNV-1a over the bit patterns of @p v (iterates and residual histories
/// pinned bitwise in one hex cell).
void fnv_mix(std::uint64_t& h, std::span<const double> v) {
  for (const double d : v) {
    const auto bits = std::bit_cast<std::uint64_t>(d);
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (bits >> (8 * byte)) & 0xffu;
      h *= 0x100000001b3ull;
    }
  }
}

/// The BiCGStab golden workload: every exit of the single-RHS and blocked
/// (k = 3, one zero column) solvers on a 150-row nonsymmetric system, for
/// each format on riscv-vec and riscv-vec-scalar at VECTOR_SIZE 64, plus
/// the host solvers.  One row per solve: each column's iterations,
/// convergence and residual, a hash of x and the residual histories, and —
/// for Vpu solves — every registered counter.
std::string generate_bicgstab_counters_csv() {
  const int n = 150;  // 2 full strips + a 22-row tail at VS 64
  const int vs = 64;
  const solver::CsrMatrix a = golden_nonsymmetric(n, -1);
  const solver::CsrMatrix a_zero_diag = golden_nonsymmetric(n, 5);
  solver::CsrMatrix a_breakdown(std::vector<std::vector<int>>(2));
  a_breakdown.add(0, 0, 1.0);  // diag(1, −1), b = (1, 1): r₀·v = 0
  a_breakdown.add(1, 1, -1.0);
  std::vector<double> b(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) b[static_cast<std::size_t>(i)] = std::cos(i);
  std::vector<double> b3(static_cast<std::size_t>(3 * n), 0.0);
  for (int i = 0; i < n; ++i) {
    b3[static_cast<std::size_t>(i)] = b[static_cast<std::size_t>(i)];
    b3[static_cast<std::size_t>(2 * n + i)] = 1.0 + 0.5 * std::sin(3 * i);
  }
  const std::vector<double> b_breakdown{1.0, 1.0};

  struct Case {
    const char* name;
    const solver::CsrMatrix* a;
    const std::vector<double>* b;
    int k;
    solver::SolveOptions opts;
  };
  const Case cases[] = {
      {"converged", &a, &b, 1, {}},
      {"budget", &a, &b, 1, {.max_iterations = 3, .precond = {}}},
      {"failure", &a_zero_diag, &b, 1, {}},
      {"breakdown", &a_breakdown, &b_breakdown, 1,
       {.precond = {.kind = solver::PrecondKind::kNone}}},
      {"block3", &a, &b3, 3, {}},
  };

  std::ostringstream os;
  os << "case,solver,machine,format,reports,hash";
  sim::Counters::visit_fields(
      [&](const sim::CounterInfo& info) { os << ',' << info.name; });
  os << '\n';
  const auto row = [&](const Case& c, const char* solver_name,
                       const std::string& machine, std::string_view format,
                       const std::vector<solver::SolveReport>& reps,
                       std::span<const double> x, const sim::Vpu* vpu) {
    os << c.name << ',' << solver_name << ',' << machine << ',' << format
       << ',';
    std::uint64_t h = 0xcbf29ce484222325ull;
    fnv_mix(h, x);
    for (std::size_t d = 0; d < reps.size(); ++d) {
      os << (d ? ";" : "") << reps[d].iterations << ':' << reps[d].converged
         << ':' << format_cell(reps[d].residual);
      fnv_mix(h, reps[d].history);
    }
    char hex[20];
    std::snprintf(hex, sizeof hex, "%016llx",
                  static_cast<unsigned long long>(h));
    os << ',' << hex;
    if (vpu != nullptr) {
      vpu->counters().visit([&](const sim::CounterInfo&, const auto& v) {
        os << ',' << format_cell(v);
      });
    }
    os << '\n';
  };
  for (const Case& c : cases) {
    std::vector<double> x(c.b->size(), 0.0);
    const std::vector<solver::SolveReport> reps =
        c.k == 1 ? std::vector{solver::bicgstab(*c.a, *c.b, x, c.opts)}
                 : solver::bicgstab_multi(*c.a, *c.b, x, c.k, c.opts);
    row(c, c.k == 1 ? "bicgstab" : "bicgstab_multi", "host", "csr", reps, x,
        nullptr);
  }
  for (const sim::MachineConfig& m :
       {platforms::riscv_vec(), platforms::riscv_vec_scalar()}) {
    for (const solver::SpmvFormat f :
         {solver::SpmvFormat::kCsrHost, solver::SpmvFormat::kEll,
          solver::SpmvFormat::kSell}) {
      for (const Case& c : cases) {
        sim::Vpu vpu(m);
        std::vector<double> x(c.b->size(), 0.0);
        const std::vector<solver::SolveReport> reps =
            c.k == 1 ? std::vector{solver::vbicgstab(vpu, *c.a, *c.b, x,
                                                     c.opts, vs, nullptr, f)}
                     : solver::vbicgstab_multi(vpu, *c.a, *c.b, x, c.k,
                                               c.opts, vs, nullptr, f);
        row(c, c.k == 1 ? "vbicgstab" : "vbicgstab_multi", m.name,
            solver::to_string(f), reps, x, &vpu);
      }
    }
  }
  return os.str();
}

/// The CG golden workload, in two parts, each on riscv-vec and
/// riscv-vec-scalar at VECTOR_SIZE 64:
///
///   * vcg on a pinned 7³ pressure Laplacian (512 rows; its ELL mirror
///     alone outgrows the 128 KB modelled L1, so a reordered load moves the
///     miss counters) per format × ladder rung, plus the budget,
///     zero-diagonal, injected-breakdown and zero-RHS exits;
///   * every BLAS-1 kernel on fresh Vpus at an odd length whose operands
///     outgrow the L1, each called twice (the second call re-streams a
///     cache left by the first), blocked forms at k = 3 with column 1
///     masked off, and a vnorm2 of a |a| ≈ 1e300 vector (the rescan path).
///
/// One row per solve or kernel: the report(s) or returned scalar, a hash of
/// every output, and every registered counter.
std::string generate_cg_counters_csv() {
  const int vs = 64;
  const fem::Mesh mesh({.nx = 7, .ny = 7, .nz = 7});
  const solver::CsrMatrix a = pinned_pressure_laplacian(mesh);
  solver::CsrMatrix a_zero_diag = a;
  a_zero_diag.add(5, 5, -a_zero_diag.at(5, 5));
  const std::size_t n = static_cast<std::size_t>(a.rows());
  std::vector<double> b(n, 0.0);
  for (std::size_t i = 1; i < n; ++i) {
    b[i] = 1.0 + 0.25 * std::sin(static_cast<double>(i));
  }
  const std::vector<double> zero_b(n, 0.0);

  struct Case {
    std::string name;
    const solver::CsrMatrix* a;
    const std::vector<double>* b;
    solver::SolveOptions opts;
  };
  std::vector<Case> cases;
  for (const solver::PrecondKind kind :
       {solver::PrecondKind::kJacobi, solver::PrecondKind::kCheby,
        solver::PrecondKind::kDeflate}) {
    solver::SolveOptions o;
    o.precond.kind = kind;
    if (kind == solver::PrecondKind::kDeflate) {
      o.precond.aggregates = fem::structured_aggregates(mesh, 2);
    }
    cases.push_back({solver::to_string(kind), &a, &b, o});
  }
  cases.push_back(
      {"none", &a, &b, {.precond = {.kind = solver::PrecondKind::kNone}}});
  cases.push_back({"budget", &a, &b, {.max_iterations = 3, .precond = {}}});
  cases.push_back({"zero-diagonal", &a_zero_diag, &b, {}});
  cases.push_back({"breakdown", &a, &b,
                   {.precond = {}, .inject_breakdown = true}});
  cases.push_back({"zero-rhs", &a, &zero_b, {}});

  std::ostringstream os;
  os << "case,machine,format,result,hash";
  sim::Counters::visit_fields(
      [&](const sim::CounterInfo& info) { os << ',' << info.name; });
  os << '\n';
  const auto row = [&](const std::string& name, const sim::Vpu& vpu,
                       std::string_view format, const std::string& result,
                       std::span<const double> out) {
    std::uint64_t h = 0xcbf29ce484222325ull;
    fnv_mix(h, out);
    char hex[20];
    std::snprintf(hex, sizeof hex, "%016llx",
                  static_cast<unsigned long long>(h));
    os << name << ',' << vpu.config().name << ',' << format << ',' << result
       << ',' << hex;
    vpu.counters().visit([&](const sim::CounterInfo&, const auto& v) {
      os << ',' << format_cell(v);
    });
    os << '\n';
  };

  const sim::MachineConfig machines[] = {platforms::riscv_vec(),
                                         platforms::riscv_vec_scalar()};
  for (const sim::MachineConfig& m : machines) {
    for (const solver::SpmvFormat f :
         {solver::SpmvFormat::kCsrHost, solver::SpmvFormat::kEll,
          solver::SpmvFormat::kSell}) {
      for (const Case& c : cases) {
        sim::Vpu vpu(m);
        std::vector<double> x(n, 0.0);
        const solver::SolveReport rep =
            solver::vcg(vpu, *c.a, *c.b, x, c.opts, vs, nullptr, f);
        std::vector<double> out = x;
        out.insert(out.end(), rep.history.begin(), rep.history.end());
        row(c.name, vpu, solver::to_string(f),
            std::to_string(rep.iterations) + ':' +
                std::to_string(rep.converged) + ':' +
                format_cell(rep.residual) + ':' +
                (rep.failure.empty() ? "ok" : "failed"),
            out);
      }
    }
  }

  // BLAS-1 kernels: odd length, two 78 KB operands per call.
  const int len = 10007;
  const int k = 3;
  const std::size_t ul = static_cast<std::size_t>(len);
  const auto filled = [](std::size_t size, double scale, double phase) {
    std::vector<double> v(size);
    for (std::size_t i = 0; i < size; ++i) {
      v[i] = scale * (1.0 + 0.5 * std::sin(0.37 * static_cast<double>(i) +
                                           phase));
    }
    return v;
  };
  const std::vector<char> active = {1, 0, 1};
  const std::vector<double> alphas = {0.5, -1.25, 2.0};
  const std::vector<double> dinv = filled(ul, 0.25, 3.0);
  using Kernel = std::function<std::string(sim::Vpu&, std::vector<double>&)>;
  const std::vector<std::pair<std::string, Kernel>> kernels = {
      {"vdot", [&](sim::Vpu& vpu, std::vector<double>& out) {
         const auto u = filled(ul, 1.0, 0.0);
         const auto v = filled(ul, 1.0, 1.0);
         out.push_back(solver::vdot(vpu, u, v, vs));
         out.push_back(solver::vdot(vpu, u, v, vs));
         return format_cell(out.back());
       }},
      {"vnorm2", [&](sim::Vpu& vpu, std::vector<double>& out) {
         const auto u = filled(2 * ul, 1.0, 0.0);
         out.push_back(solver::vnorm2(vpu, u, vs));
         out.push_back(solver::vnorm2(vpu, u, vs));
         return format_cell(out.back());
       }},
      {"vnorm2-rescan", [&](sim::Vpu& vpu, std::vector<double>& out) {
         const auto u = filled(2 * ul, 1e300, 0.0);
         out.push_back(solver::vnorm2(vpu, u, vs));
         out.push_back(solver::vnorm2(vpu, u, vs));
         return format_cell(out.back());
       }},
      {"vaxpy", [&](sim::Vpu& vpu, std::vector<double>& out) {
         const auto u = filled(ul, 1.0, 0.0);
         out = filled(ul, 1.0, 1.0);
         solver::vaxpy(vpu, 0.75, u, out, vs);
         solver::vaxpy(vpu, -0.5, u, out, vs);
         return std::string("-");
       }},
      {"vxpby", [&](sim::Vpu& vpu, std::vector<double>& out) {
         const auto u = filled(ul, 1.0, 0.0);
         out = filled(ul, 1.0, 1.0);
         solver::vxpby(vpu, u, 0.75, out, vs);
         solver::vxpby(vpu, u, -0.5, out, vs);
         return std::string("-");
       }},
      {"vsub", [&](sim::Vpu& vpu, std::vector<double>& out) {
         const auto u = filled(ul, 1.0, 0.0);
         out = filled(ul, 1.0, 1.0);
         solver::vsub(vpu, u, out, out, vs);
         solver::vsub(vpu, out, u, out, vs);
         return std::string("-");
       }},
      {"vcopy", [&](sim::Vpu& vpu, std::vector<double>& out) {
         const auto u = filled(ul, 1.0, 0.0);
         out.assign(ul, 0.0);
         solver::vcopy(vpu, u, out, vs);
         solver::vcopy(vpu, u, out, vs);
         return std::string("-");
       }},
      {"vscal", [&](sim::Vpu& vpu, std::vector<double>& out) {
         out = filled(2 * ul, 1.0, 0.0);
         solver::vscal(vpu, 0.75, out, vs);
         solver::vscal(vpu, -1.5, out, vs);
         return std::string("-");
       }},
      {"vfill", [&](sim::Vpu& vpu, std::vector<double>& out) {
         out.assign(2 * ul, 0.0);
         solver::vfill(vpu, out, 0.75, vs);
         solver::vfill(vpu, out, -1.5, vs);
         return std::string("-");
       }},
      {"vjacobi_apply", [&](sim::Vpu& vpu, std::vector<double>& out) {
         const auto r = filled(ul, 1.0, 0.0);
         out.assign(ul, 0.0);
         solver::vjacobi_apply(vpu, dinv, r, out, vs);
         solver::vjacobi_apply(vpu, dinv, r, out, vs);
         return std::string("-");
       }},
      {"vpack_strided", [&](sim::Vpu& vpu, std::vector<double>& out) {
         const auto src = filled(3 * ul, 1.0, 0.0);
         out.assign(ul, 0.0);
         solver::vpack_strided(vpu, src.data() + 1, 3, out, vs);
         solver::vpack_strided(vpu, src.data() + 2, 3, out, vs);
         return std::string("-");
       }},
      {"vdot_multi", [&](sim::Vpu& vpu, std::vector<double>& out) {
         const auto u = filled(k * ul, 1.0, 0.0);
         const auto v = filled(k * ul, 1.0, 1.0);
         out.assign(static_cast<std::size_t>(k), -7.0);
         solver::vdot_multi(vpu, u, v, k, out, vs, active);
         solver::vdot_multi(vpu, u, v, k, out, vs, active);
         return std::string("-");
       }},
      {"vaxpy_multi", [&](sim::Vpu& vpu, std::vector<double>& out) {
         const auto u = filled(k * ul, 1.0, 0.0);
         out = filled(k * ul, 1.0, 1.0);
         solver::vaxpy_multi(vpu, alphas, u, out, k, vs, active);
         solver::vaxpy_multi(vpu, alphas, u, out, k, vs, active);
         return std::string("-");
       }},
      {"vsub_multi", [&](sim::Vpu& vpu, std::vector<double>& out) {
         const auto u = filled(k * ul, 1.0, 0.0);
         out = filled(k * ul, 1.0, 1.0);
         solver::vsub_multi(vpu, u, out, out, k, vs, active);
         solver::vsub_multi(vpu, out, u, out, k, vs, active);
         return std::string("-");
       }},
      {"vcopy_multi", [&](sim::Vpu& vpu, std::vector<double>& out) {
         const auto u = filled(k * ul, 1.0, 0.0);
         out.assign(k * ul, 0.0);
         solver::vcopy_multi(vpu, u, out, k, vs, active);
         solver::vcopy_multi(vpu, u, out, k, vs, active);
         return std::string("-");
       }},
      {"vjacobi_apply_multi", [&](sim::Vpu& vpu, std::vector<double>& out) {
         const auto r = filled(k * ul, 1.0, 0.0);
         out.assign(k * ul, 0.0);
         solver::vjacobi_apply_multi(vpu, dinv, r, out, k, vs, active);
         solver::vjacobi_apply_multi(vpu, dinv, r, out, k, vs, active);
         return std::string("-");
       }},
  };
  for (const sim::MachineConfig& m : machines) {
    for (const auto& [name, kernel] : kernels) {
      sim::Vpu vpu(m);
      std::vector<double> out;
      const std::string result = kernel(vpu, out);
      row(name, vpu, "-", result, out);
    }
  }
  return os.str();
}

/// The assembly grid: every platform × optimization level, a VECTOR_SIZE
/// below and one near the vlmax of the long-vector machines, both schemes.
struct AssemblyPoint {
  sim::MachineConfig machine;
  miniapp::MiniAppConfig cfg;
};

std::vector<AssemblyPoint> assembly_grid() {
  std::vector<AssemblyPoint> grid;
  for (const sim::MachineConfig& m :
       {platforms::riscv_vec(), platforms::riscv_vec_scalar(),
        platforms::sx_aurora(), platforms::mn4_avx512()}) {
    for (const miniapp::OptLevel opt :
         {miniapp::OptLevel::kScalar, miniapp::OptLevel::kVanilla,
          miniapp::OptLevel::kVec2, miniapp::OptLevel::kIVec2,
          miniapp::OptLevel::kVec1}) {
      for (const int vs : {16, 240}) {
        for (const fem::Scheme scheme :
             {fem::Scheme::kExplicit, fem::Scheme::kSemiImplicit}) {
          miniapp::MiniAppConfig cfg;
          cfg.vector_size = vs;
          cfg.opt = opt;
          cfg.scheme = scheme;
          grid.push_back({m, cfg});
        }
      }
    }
  }
  return grid;
}

/// The assembly counter golden workload: MiniApp::run on a 4×4×2 mesh at
/// every assembly_grid() point.  One row per point and phase 0–8 with an
/// FNV hash of the assembled rhs and matrix values and every registered
/// counter of that phase.
std::string generate_assembly_counters_csv() {
  const fem::Mesh mesh({.nx = 4, .ny = 4, .nz = 2});
  const fem::State state(mesh);
  std::ostringstream os;
  os << "machine,opt,vs,scheme,phase,hash";
  sim::Counters::visit_fields(
      [&](const sim::CounterInfo& info) { os << ',' << info.name; });
  os << '\n';
  for (const AssemblyPoint& pt : assembly_grid()) {
    const miniapp::MiniApp app(mesh, state, pt.cfg);
    sim::Vpu vpu(pt.machine);
    const miniapp::MiniAppResult res = app.run(vpu);
    std::uint64_t h = 0xcbf29ce484222325ull;
    fnv_mix(h, res.rhs);
    if (res.has_matrix) fnv_mix(h, res.matrix.vals());
    char hex[20];
    std::snprintf(hex, sizeof hex, "%016llx",
                  static_cast<unsigned long long>(h));
    for (int p = 0; p <= miniapp::kNumPhases; ++p) {
      os << pt.machine.name << ',' << miniapp::to_string(pt.cfg.opt) << ','
         << pt.cfg.vector_size << ',' << fem::to_string(pt.cfg.scheme) << ','
         << p << ',' << hex;
      res.phase[static_cast<std::size_t>(p)].visit(
          [&](const sim::CounterInfo&, const auto& v) {
            os << ',' << format_cell(v);
          });
      os << '\n';
    }
  }
  return os.str();
}

/// Host buffers the ISA golden's memory instructions read and write.
/// alignas(128) on the stack keeps every buffer on a line boundary of every
/// modelled platform without the 128-byte-aligned operator new, so the
/// canonical line stream (and with it every cache counter) is the same in
/// sanitizer builds, whose allocators replace that operator new.
constexpr int kIsaElems = 1024;

struct IsaBuffers {
  alignas(128) double src[kIsaElems];
  alignas(128) double dst[kIsaElems];
  alignas(128) std::int32_t src32[kIsaElems];
  alignas(128) std::int32_t dst32[kIsaElems];
};

/// Hashes the observer stream: (phase, kind, vl, cycles) per instruction.
class HashObserver final : public sim::InstrObserver {
 public:
  void on_instr(int phase, sim::InstrKind kind, int vl,
                double cycles) override {
    const double rec[] = {static_cast<double>(phase),
                          static_cast<double>(static_cast<int>(kind)),
                          static_cast<double>(vl), cycles};
    fnv_mix(hash, rec);
  }
  std::uint64_t hash = 0xcbf29ce484222325ull;
};

/// Operand @p k of an elementwise instruction: @p len positive lanes.
sim::Vec isa_lanes(int len, int k) {
  sim::Vec v(static_cast<std::size_t>(len));
  for (int i = 0; i < len; ++i) {
    v[static_cast<std::size_t>(i)] = 0.5 + 0.25 * k + 0.125 * i;
  }
  return v;
}

/// Gather index of @p len lanes: every third lane (i % 3 == 1) is a masked
/// −1 pad, the others revisit a few lines of src.
sim::Vec isa_gather_index(int len) {
  sim::Vec v(static_cast<std::size_t>(len));
  for (int i = 0; i < len; ++i) {
    v[static_cast<std::size_t>(i)] = i % 3 == 1 ? -1.0 : (i * 37) % 600;
  }
  return v;
}

/// Scatter index of @p len distinct lanes into dst.
sim::Vec isa_scatter_index(int len) {
  sim::Vec v(static_cast<std::size_t>(len));
  for (int i = 0; i < len; ++i) {
    v[static_cast<std::size_t>(i)] = (i * 7) % kIsaElems;
  }
  return v;
}

/// One instruction of the ISA golden.  @p operands Vec operands; @p lens
/// holds their lengths, @p vl the row's vector length.
struct IsaCase {
  const char* name;
  int operands;
  std::function<void(sim::Vpu&, IsaBuffers&, const int* lens, int vl,
                     std::vector<double>& out)>
      issue;
};

std::vector<IsaCase> isa_cases() {
  const auto append = [](std::vector<double>& out, const sim::Vec& v) {
    out.insert(out.end(), v.raw().begin(), v.raw().end());
  };
  const auto lanes = [](const int* lens, int k) {
    return isa_lanes(lens[k], k);
  };
  std::vector<IsaCase> c;
  c.push_back({"vsetvl", 0, [](sim::Vpu& v, IsaBuffers&, const int*, int vl,
                               std::vector<double>& out) {
                 out.push_back(v.set_vl(2 * vl + 1));
               }});
  c.push_back({"vsetvl_zero", 0, [](sim::Vpu& v, IsaBuffers&, const int*,
                                    int, std::vector<double>& out) {
                 out.push_back(v.set_vl(0));
               }});
  c.push_back({"vload", 0, [=](sim::Vpu& v, IsaBuffers& b, const int*, int,
                               std::vector<double>& out) {
                 append(out, v.vload(b.src + 3));
               }});
  c.push_back({"vload_strided", 0,
               [=](sim::Vpu& v, IsaBuffers& b, const int*, int,
                   std::vector<double>& out) {
                 append(out, v.vload_strided(b.src + 1, 3));
               }});
  c.push_back({"vload_i32", 0, [=](sim::Vpu& v, IsaBuffers& b, const int*,
                                   int, std::vector<double>& out) {
                 append(out, v.vload_i32(b.src32 + 5));
               }});
  c.push_back({"vgather", 1, [=](sim::Vpu& v, IsaBuffers& b, const int* lens,
                                 int, std::vector<double>& out) {
                 append(out, v.vgather(b.src, isa_gather_index(lens[0])));
               }});
  c.push_back({"vstore", 1, [=](sim::Vpu& v, IsaBuffers& b, const int* lens,
                                int, std::vector<double>&) {
                 v.vstore(b.dst + 3, lanes(lens, 0));
               }});
  c.push_back({"vstore_strided", 1,
               [=](sim::Vpu& v, IsaBuffers& b, const int* lens, int,
                   std::vector<double>&) {
                 v.vstore_strided(b.dst + 2, 3, lanes(lens, 0));
               }});
  c.push_back({"vscatter", 2, [=](sim::Vpu& v, IsaBuffers& b,
                                  const int* lens, int, std::vector<double>&) {
                 v.vscatter(b.dst, isa_scatter_index(lens[0]), lanes(lens, 1));
               }});
  using Binary = sim::Vec (sim::Vpu::*)(const sim::Vec&, const sim::Vec&);
  for (const auto& [name, op] :
       {std::pair<const char*, Binary>{"vadd", &sim::Vpu::vadd},
        {"vsub", &sim::Vpu::vsub},
        {"vmul", &sim::Vpu::vmul},
        {"vdiv", &sim::Vpu::vdiv}}) {
    c.push_back({name, 2, [=, op = op](sim::Vpu& v, IsaBuffers&,
                                       const int* lens, int,
                                       std::vector<double>& out) {
                   append(out, (v.*op)(lanes(lens, 0), lanes(lens, 1)));
                 }});
  }
  using Ternary = sim::Vec (sim::Vpu::*)(const sim::Vec&, const sim::Vec&,
                                         const sim::Vec&);
  for (const auto& [name, op] :
       {std::pair<const char*, Ternary>{"vfma", &sim::Vpu::vfma},
        {"vfnma", &sim::Vpu::vfnma}}) {
    c.push_back({name, 3, [=, op = op](sim::Vpu& v, IsaBuffers&,
                                       const int* lens, int,
                                       std::vector<double>& out) {
                   append(out, (v.*op)(lanes(lens, 0), lanes(lens, 1),
                                       lanes(lens, 2)));
                 }});
  }
  using Unary = sim::Vec (sim::Vpu::*)(const sim::Vec&);
  for (const auto& [name, op] :
       {std::pair<const char*, Unary>{"vsqrt", &sim::Vpu::vsqrt},
        {"vcbrt", &sim::Vpu::vcbrt}}) {
    c.push_back({name, 1, [=, op = op](sim::Vpu& v, IsaBuffers&,
                                       const int* lens, int,
                                       std::vector<double>& out) {
                   append(out, (v.*op)(lanes(lens, 0)));
                 }});
  }
  c.push_back({"vabs", 1, [=](sim::Vpu& v, IsaBuffers&, const int* lens, int,
                              std::vector<double>& out) {
                 sim::Vec a = lanes(lens, 0);
                 for (int i = 0; i < a.size(); i += 2) {
                   a[static_cast<std::size_t>(i)] *= -1.0;
                 }
                 append(out, v.vabs(a));
               }});
  using VecScalar = sim::Vec (sim::Vpu::*)(const sim::Vec&, double);
  for (const auto& [name, op] :
       {std::pair<const char*, VecScalar>{"vadd_s", &sim::Vpu::vadd_s},
        {"vmul_s", &sim::Vpu::vmul_s},
        {"viadd_s", &sim::Vpu::viadd_s},
        {"vimul_s", &sim::Vpu::vimul_s}}) {
    c.push_back({name, 1, [=, op = op](sim::Vpu& v, IsaBuffers&,
                                       const int* lens, int,
                                       std::vector<double>& out) {
                   append(out, (v.*op)(lanes(lens, 0), 1.75));
                 }});
  }
  c.push_back({"vfma_s", 2, [=](sim::Vpu& v, IsaBuffers&, const int* lens,
                                int, std::vector<double>& out) {
                 append(out, v.vfma_s(lanes(lens, 0), -0.625, lanes(lens, 1)));
               }});
  using Reduce = double (sim::Vpu::*)(const sim::Vec&);
  for (const auto& [name, op] :
       {std::pair<const char*, Reduce>{"vredsum", &sim::Vpu::vredsum},
        {"vredmax", &sim::Vpu::vredmax}}) {
    c.push_back({name, 1, [=, op = op](sim::Vpu& v, IsaBuffers&,
                                       const int* lens, int,
                                       std::vector<double>& out) {
                   out.push_back((v.*op)(lanes(lens, 0)));
                 }});
  }
  c.push_back({"vsplat", 0, [=](sim::Vpu& v, IsaBuffers&, const int*, int vl,
                                std::vector<double>& out) {
                 append(out, v.vsplat(0.5 + vl));
               }});
  c.push_back({"sload", 0, [](sim::Vpu& v, IsaBuffers& b, const int*, int vl,
                              std::vector<double>& out) {
                 out.push_back(v.sload(b.src + vl));
               }});
  c.push_back({"sload_i32", 0, [](sim::Vpu& v, IsaBuffers& b, const int*,
                                  int vl, std::vector<double>& out) {
                 out.push_back(v.sload_i32(b.src32 + vl));
               }});
  c.push_back({"sstore", 0, [](sim::Vpu& v, IsaBuffers& b, const int*, int vl,
                               std::vector<double>&) {
                 v.sstore(b.dst + vl, 2.5 + vl);
               }});
  c.push_back({"sstore_i32", 0, [](sim::Vpu& v, IsaBuffers& b, const int*,
                                   int vl, std::vector<double>&) {
                 v.sstore_i32(b.dst32 + vl, -vl);
               }});
  using Count = void (sim::Vpu::*)(std::uint64_t);
  for (const auto& [name, op] :
       {std::pair<const char*, Count>{"sarith", &sim::Vpu::sarith},
        {"note_coalesced_lanes", &sim::Vpu::note_coalesced_lanes},
        {"note_pad_lanes", &sim::Vpu::note_pad_lanes},
        {"note_halo_lines_sent", &sim::Vpu::note_halo_lines_sent},
        {"note_halo_lines_recv", &sim::Vpu::note_halo_lines_recv},
        {"note_halo_messages", &sim::Vpu::note_halo_messages}}) {
    c.push_back({name, 0, [op = op](sim::Vpu& v, IsaBuffers&, const int*,
                                    int vl, std::vector<double>&) {
                   (v.*op)(static_cast<std::uint64_t>(vl));
                 }});
  }
  using Scalar2 = double (sim::Vpu::*)(double, double);
  for (const auto& [name, op] :
       {std::pair<const char*, Scalar2>{"sadd", &sim::Vpu::sadd},
        {"ssub", &sim::Vpu::ssub},
        {"smul", &sim::Vpu::smul},
        {"sdiv", &sim::Vpu::sdiv}}) {
    c.push_back({name, 0, [op = op](sim::Vpu& v, IsaBuffers&, const int*,
                                    int vl, std::vector<double>& out) {
                   out.push_back((v.*op)(1.5 + vl, 0.75));
                 }});
  }
  using Scalar3 = double (sim::Vpu::*)(double, double, double);
  for (const auto& [name, op] :
       {std::pair<const char*, Scalar3>{"sfma", &sim::Vpu::sfma},
        {"sfnma", &sim::Vpu::sfnma}}) {
    c.push_back({name, 0, [op = op](sim::Vpu& v, IsaBuffers&, const int*,
                                    int vl, std::vector<double>& out) {
                   out.push_back((v.*op)(1.5 + vl, 0.75, -2.25));
                 }});
  }
  using Scalar1 = double (sim::Vpu::*)(double);
  for (const auto& [name, op] :
       {std::pair<const char*, Scalar1>{"ssqrt", &sim::Vpu::ssqrt},
        {"scbrt", &sim::Vpu::scbrt}}) {
    c.push_back({name, 0, [op = op](sim::Vpu& v, IsaBuffers&, const int*,
                                    int vl, std::vector<double>& out) {
                   out.push_back((v.*op)(1.5 + vl));
                 }});
  }
  return c;
}

/// The ISA counter golden workload: every instruction sim::Vpu issues, on
/// riscv-vec, sx-aurora (128 B lines), mn4-avx512 and riscv-vec-scalar, at
/// vl ∈ {1, 7, vlmax} (vsetvl_zero asks for 0 lanes), issued twice (cold, then warm caches) in phase 0 or
/// inside the open phase 1 of a fresh two-phase Vpu whose vsetvl ran in
/// phase 0.  Instructions with Vec operands also run, at vl 7 in phase 1,
/// with every operand empty and with the last operand one lane long.  One
/// row per run: a hash of the results and of every byte stored, a hash of
/// the observer stream, the exception type and what() (or "-"), and every
/// registered counter of the total, phase 0 and phase 1.
std::string generate_vpu_isa_counters_csv() {
  IsaBuffers bufs;
  for (int i = 0; i < kIsaElems; ++i) {
    bufs.src[i] = 1.0 + 0.5 * std::sin(0.37 * i);
    bufs.src32[i] = (i * 13) % 1000 - 100;
  }
  std::ostringstream os;
  os << "machine,instr,operands,vl,phase,result_hash,observer_hash,what";
  for (const char* prefix : {"", "p0_", "p1_"}) {
    sim::Counters::visit_fields([&](const sim::CounterInfo& info) {
      os << ',' << prefix << info.name;
    });
  }
  os << '\n';
  const std::vector<IsaCase> cases = isa_cases();
  for (const sim::MachineConfig& m :
       {platforms::riscv_vec(), platforms::sx_aurora(),
        platforms::mn4_avx512(), platforms::riscv_vec_scalar()}) {
    const auto run = [&](const IsaCase& c, const char* shape, int vl,
                         int phase) {
      int lens[3];
      for (int k = 0; k < 3; ++k) {
        lens[k] = std::string_view(shape) == "empty" ? 0 : vl;
      }
      if (std::string_view(shape) == "mismatch") lens[c.operands - 1] += 1;
      std::fill(std::begin(bufs.dst), std::end(bufs.dst), 0.0);
      std::fill(std::begin(bufs.dst32), std::end(bufs.dst32), 0);
      sim::Vpu vpu(m, /*num_phases=*/1);
      HashObserver obs;
      vpu.set_observer(&obs);
      std::vector<double> out;
      std::string what = "-";
      try {
        if (m.vector_enabled) vpu.set_vl(vl);
        const auto issue_twice = [&] {
          for (int rep = 0; rep < 2; ++rep) c.issue(vpu, bufs, lens, vl, out);
        };
        if (phase == 1) {
          sim::ScopedPhase scope(vpu.profiler(), 1);
          issue_twice();
        } else {
          issue_twice();
        }
      } catch (const std::invalid_argument& e) {
        what = std::string("invalid_argument: ") + e.what();
      } catch (const std::logic_error& e) {
        what = std::string("logic_error: ") + e.what();
      }
      std::replace(what.begin(), what.end(), ',', ';');
      std::uint64_t h = 0xcbf29ce484222325ull;
      fnv_mix(h, out);
      fnv_mix(h, bufs.dst);
      std::vector<double> dst32(std::begin(bufs.dst32), std::end(bufs.dst32));
      fnv_mix(h, dst32);
      char hex[40];
      std::snprintf(hex, sizeof hex, "%016llx,%016llx",
                    static_cast<unsigned long long>(h),
                    static_cast<unsigned long long>(obs.hash));
      os << m.name << ',' << c.name << ',' << shape << ',' << vl << ','
         << phase << ',' << hex << ',' << what;
      const sim::PhaseProfiler& prof = vpu.profiler();
      for (const sim::Counters* counters :
           {&vpu.counters(), &prof.phase(0), &prof.phase(1)}) {
        counters->visit([&](const sim::CounterInfo&, const auto& v) {
          os << ',' << format_cell(v);
        });
      }
      os << '\n';
    };
    for (const IsaCase& c : cases) {
      for (const int vl : {1, 7, m.vlmax}) {
        for (const int phase : {0, 1}) run(c, "ok", vl, phase);
      }
      if (c.operands >= 1) run(c, "empty", 7, 1);
      if (c.operands >= 2) run(c, "mismatch", 7, 1);
    }
  }
  return os.str();
}

struct Golden {
  const char* path;
  std::string (*generate)();
};

const Golden kSweep{VECFD_GOLDEN_DIR "/sweep_small.csv", generate_sweep_csv};
const Golden kCampaign{VECFD_GOLDEN_DIR "/campaign_small.csv",
                       generate_campaign_csv};
const Golden kShardedCounters{VECFD_GOLDEN_DIR "/sharded_cg_counters.csv",
                              generate_sharded_counters_csv};
const Golden kBicgstabCounters{VECFD_GOLDEN_DIR "/bicgstab_counters.csv",
                               generate_bicgstab_counters_csv};
const Golden kAssemblyCounters{VECFD_GOLDEN_DIR "/assembly_counters.csv",
                               generate_assembly_counters_csv};
const Golden kCgCounters{VECFD_GOLDEN_DIR "/cg_counters.csv",
                         generate_cg_counters_csv};
const Golden kVpuIsaCounters{VECFD_GOLDEN_DIR "/vpu_isa_counters.csv",
                             generate_vpu_isa_counters_csv};

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> out;
  std::istringstream is(text);
  std::string l;
  while (std::getline(is, l)) out.push_back(l);
  return out;
}

std::vector<std::string> cells_of(const std::string& line) {
  std::vector<std::string> out;
  std::istringstream is(line);
  std::string c;
  while (std::getline(is, c, ',')) out.push_back(c);
  return out;
}

std::string slurp_golden(const char* path) {
  std::ifstream is(path, std::ios::binary);
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

void expect_golden_exists(const Golden& g) {
  EXPECT_FALSE(slurp_golden(g.path).empty())
      << "missing " << g.path
      << " — regenerate with: test_golden_csv --regen-golden";
}

void expect_schema_byte_stable(const Golden& g) {
  const auto fresh = lines_of(g.generate());
  const auto golden = lines_of(slurp_golden(g.path));
  ASSERT_FALSE(golden.empty());
  ASSERT_FALSE(fresh.empty());
  EXPECT_EQ(fresh[0], golden[0])
      << "CSV header changed — if intentional, regenerate the golden with "
         "--regen-golden and review the schema diff";
}

void expect_values_within_tolerance(const Golden& g) {
  const auto fresh = lines_of(g.generate());
  const auto golden = lines_of(slurp_golden(g.path));
  ASSERT_EQ(fresh.size(), golden.size()) << "row count changed";
  for (std::size_t row = 1; row < golden.size(); ++row) {
    const auto got = cells_of(fresh[row]);
    const auto want = cells_of(golden[row]);
    ASSERT_EQ(got.size(), want.size()) << "arity of row " << row;
    for (std::size_t col = 0; col < want.size(); ++col) {
      if (got[col] == want[col]) continue;  // fast path, incl. text cells
      char* end_g = nullptr;
      char* end_w = nullptr;
      const double gv = std::strtod(got[col].c_str(), &end_g);
      const double wv = std::strtod(want[col].c_str(), &end_w);
      const bool numeric = end_g != got[col].c_str() && *end_g == '\0' &&
                           end_w != want[col].c_str() && *end_w == '\0';
      ASSERT_TRUE(numeric) << "non-numeric mismatch at row " << row
                           << " col " << col << ": '" << got[col] << "' vs '"
                           << want[col] << "'";
      EXPECT_NEAR(gv, wv, 1e-9 * (1.0 + std::abs(wv)))
          << "row " << row << " col " << col;
    }
  }
}

void expect_values_bitwise(const Golden& g) {
  const auto fresh = lines_of(g.generate());
  const auto golden = lines_of(slurp_golden(g.path));
  ASSERT_EQ(fresh.size(), golden.size()) << "row count changed";
  for (std::size_t row = 1; row < golden.size(); ++row) {
    EXPECT_EQ(fresh[row], golden[row]) << "row " << row;
  }
}

TEST(GoldenCsv, GoldenFileExists) { expect_golden_exists(kSweep); }

TEST(GoldenCsv, SchemaIsByteStable) { expect_schema_byte_stable(kSweep); }

TEST(GoldenCsv, ValuesMatchWithinTolerance) {
  VECFD_SKIP_UNDER_ASAN();
  expect_values_within_tolerance(kSweep);
}

TEST(GoldenCampaignCsv, GoldenFileExists) { expect_golden_exists(kCampaign); }

TEST(GoldenCampaignCsv, SchemaIsByteStable) {
  expect_schema_byte_stable(kCampaign);
}

TEST(GoldenCampaignCsv, ValuesMatchWithinTolerance) {
  VECFD_SKIP_UNDER_ASAN();
  expect_values_within_tolerance(kCampaign);
}

TEST(GoldenShardedCounters, GoldenFileExists) {
  expect_golden_exists(kShardedCounters);
}

TEST(GoldenShardedCounters, SchemaIsByteStable) {
  expect_schema_byte_stable(kShardedCounters);
}

TEST(GoldenShardedCounters, ValuesMatchBitwise) {
  VECFD_SKIP_UNDER_ASAN();
  expect_values_bitwise(kShardedCounters);
}

TEST(GoldenBicgstabCounters, GoldenFileExists) {
  expect_golden_exists(kBicgstabCounters);
}

TEST(GoldenBicgstabCounters, SchemaIsByteStable) {
  expect_schema_byte_stable(kBicgstabCounters);
}

TEST(GoldenBicgstabCounters, ValuesMatchBitwise) {
  VECFD_SKIP_UNDER_ASAN();
  expect_values_bitwise(kBicgstabCounters);
}

TEST(GoldenAssemblyCounters, GoldenFileExists) {
  expect_golden_exists(kAssemblyCounters);
}

TEST(GoldenAssemblyCounters, SchemaIsByteStable) {
  expect_schema_byte_stable(kAssemblyCounters);
}

TEST(GoldenAssemblyCounters, ValuesMatchBitwise) {
  VECFD_SKIP_UNDER_ASAN();
  expect_values_bitwise(kAssemblyCounters);
}

TEST(GoldenCgCounters, GoldenFileExists) { expect_golden_exists(kCgCounters); }

TEST(GoldenCgCounters, SchemaIsByteStable) {
  expect_schema_byte_stable(kCgCounters);
}

TEST(GoldenCgCounters, ValuesMatchBitwise) {
  VECFD_SKIP_UNDER_ASAN();
  expect_values_bitwise(kCgCounters);
}

TEST(GoldenVpuIsaCounters, GoldenFileExists) {
  expect_golden_exists(kVpuIsaCounters);
}

TEST(GoldenVpuIsaCounters, SchemaIsByteStable) {
  expect_schema_byte_stable(kVpuIsaCounters);
}

// Not skipped under sanitizers: the workload's buffers are alignas(128)
// stack arrays, so its line stream does not depend on operator new.
TEST(GoldenVpuIsaCounters, ValuesMatchBitwise) {
  expect_values_bitwise(kVpuIsaCounters);
}

// Every subkernel with a vector and a scalar lane form runs in both forms
// somewhere in the golden grid, so the bitwise golden pins both.  phase8
// is never vectorized (aliasing scatter).
TEST(GoldenAssemblyCounters, GridDrivesBothLaneFormsOfEverySubkernel) {
  std::map<std::string, std::pair<bool, bool>> seen;  // id → {vector, scalar}
  for (const AssemblyPoint& pt : assembly_grid()) {
    for (const auto& [id, d] : miniapp::build_plan(pt.machine, pt.cfg).all()) {
      (d.vectorize ? seen[id].first : seen[id].second) = true;
    }
  }
  for (const auto& [id, forms] : seen) {
    if (id == "phase8") continue;
    EXPECT_TRUE(forms.first) << id << " is never vectorized in the grid";
    EXPECT_TRUE(forms.second) << id << " is never scalar in the grid";
  }
}

}  // namespace

int main(int argc, char** argv) {
  bool regen = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--regen-golden") regen = true;
  }
  if (regen) {
    for (const Golden* g :
         {&kSweep, &kCampaign, &kShardedCounters, &kBicgstabCounters,
          &kAssemblyCounters, &kCgCounters, &kVpuIsaCounters}) {
      std::ofstream os(g->path, std::ios::binary);
      if (!os) {
        std::fprintf(stderr, "cannot open %s\n", g->path);
        return 1;
      }
      os << g->generate();
      std::printf("regenerated %s\n", g->path);
    }
    return 0;
  }
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
