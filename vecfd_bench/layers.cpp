// The traced pass of vecfd_bench: per-layer probes.
//
// Each probe rebuilds one layer of the workload from its LayerConfig and
// calls into it inside a span, from the benchmark's own code; the core
// probes run campaign_ft's clean grid in every workload.  The probes
// run in rounds until the pass has used its time; a host metric is the
// median over rounds, a modelled one is read once (it repeats exactly).
#include <algorithm>
#include <cmath>
#include <filesystem>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "bench.h"
#include "core/csv.h"
#include "fem/partition.h"
#include "fem/projection.h"
#include "fem/shape.h"
#include "mem/memory_hierarchy.h"
#include "metrics/metrics.h"
#include "miniapp/checkpoint.h"
#include "miniapp/driver.h"
#include "platforms/platforms.h"
#include "sim/vpu.h"
#include "solver/sharding.h"
#include "solver/vkernels.h"

namespace vecfd::bench {

namespace {

namespace fs = std::filesystem;

constexpr int kMinRounds = 3;
constexpr int kMaxRounds = 50;
/// Host time per round of the two replay probes (sim.spmv, mem.replay).
constexpr double kReplaySeconds = 0.2;
/// Figure 11's published best speed-up (VEC1 at VECTOR_SIZE 240).
constexpr double kPaperSpeedup = 7.6;
/// The solver probes must recover their manufactured solutions this well.
constexpr double kRecoveryTolerance = 1e-6;

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double relative_error(std::span<const double> x, std::span<const double> ref) {
  double num = 0.0;
  double den = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    num += (x[i] - ref[i]) * (x[i] - ref[i]);
    den += ref[i] * ref[i];
  }
  return std::sqrt(num / den);
}

/// The line stream of one ELL SpMV as the Vpu kernel issues it: per strip
/// of rows, each value and index slab strip as a unit-stride range, then
/// one line per gathered (non-pad) lane of x.
void replay_spmv_lines(mem::MemoryHierarchy& h, const solver::EllMatrix& a,
                       const std::vector<double>& x, int strip) {
  for (int i = 0; i < a.rows(); i += strip) {
    const int vl = std::min(strip, a.rows() - i);
    for (int j = 0; j < a.width(); ++j) {
      const double* vals = a.vals(j) + i;
      const std::int32_t* cols = a.cols(j) + i;
      h.touch_range(reinterpret_cast<std::uintptr_t>(vals),
                    sizeof(double) * static_cast<std::size_t>(vl));
      h.touch_range(reinterpret_cast<std::uintptr_t>(cols),
                    sizeof(std::int32_t) * static_cast<std::size_t>(vl));
      for (int r = 0; r < vl; ++r) {
        if (cols[r] >= 0) {
          h.access(reinterpret_cast<std::uintptr_t>(
              &x[static_cast<std::size_t>(cols[r])]));
        }
      }
    }
  }
}

bool same_counters(const sim::Counters& a, const sim::Counters& b) {
  bool same = true;
  sim::Counters::visit_pairs(
      a, b, [&](const sim::CounterInfo&, const auto& x, const auto& y) {
        same = same && x == y;
      });
  return same;
}

/// A manufactured solution: @p size values uniform in [-1, 1) drawn from
/// the seeded stream @p state.
std::vector<double> manufactured(std::size_t size, std::uint64_t& state) {
  std::vector<double> x(size);
  for (double& v : x) {
    v = 2.0 * static_cast<double>(splitmix64(state) >> 11) * 0x1p-53 - 1.0;
  }
  return x;
}

}  // namespace

std::string run_layer_probes(Workload& w, const RepOutcome& e2e,
                             std::uint64_t seed, double seconds,
                             const std::string& scratch, SpanRecorder& rec,
                             MetricSink& sink, int& attempted, int& failed) {
  const LayerConfig lc = w.layers();
  const sim::MachineConfig& machine = lc.machine;
  const int vs = lc.loop.vector_size;
  const int strip = solver::solve_effective_strip(vs, machine);
  const solver::SpmvFormat format = lc.loop.format;
  miniapp::MiniAppConfig app;
  app.vector_size = vs;
  app.opt = lc.loop.opt;
  app.scheme =
      lc.transient ? fem::Scheme::kSemiImplicit : fem::Scheme::kExplicit;

  // ---- modelled metrics of the end-to-end repetition ----------------------
  sink.put("sim.instrs", static_cast<double>(e2e.total.total_instrs()));
  sink.put("sim.avl", metrics::compute(e2e.total, machine.vlmax).avl);
  for (int p = 1; p <= miniapp::kNumInstrumentedPhases; ++p) {
    sink.put("sim.phase" + std::to_string(p) + "_cycles",
             e2e.phase[static_cast<std::size_t>(p)].total_cycles());
  }
  sink.put("mem.l1_miss_rate",
           ratio(static_cast<double>(e2e.total.l1_misses),
                 static_cast<double>(e2e.total.l1_accesses)));
  sink.put("mem.l2_miss_rate",
           ratio(static_cast<double>(e2e.total.l2_misses),
                 static_cast<double>(e2e.total.l1_misses)));
  sink.put("core.attempts", e2e.attempts);
  sink.put("core.degraded", e2e.degraded);

  const std::string ckpt_dir = scratch + "/ckpt";
  fs::create_directories(ckpt_dir);
  std::vector<std::string> ckpt_files = w.checkpoint_files();

  std::string error;
  auto check = [&](bool ok, const std::string& what) {
    if (!ok && error.empty()) error = what;
  };
  auto count_solve = [&](const solver::SolveReport& r) {
    ++attempted;
    if (!r.converged || !r.failure.empty()) ++failed;
  };

  std::vector<double> spmv_ns_per_instr;
  std::vector<double> ns_per_line;
  std::vector<double> fanout_eff;
  const CleanCampaign campaign = clean_campaign();
  std::vector<double> ustar;  // manufactured velocity, kDim node-major columns
  std::vector<double> xstar;  // manufactured pressure, solve order
  miniapp::MiniAppResult momentum_system;  // assembly_paper: extra semi pass
  const Clock::time_point t0 = Clock::now();
  for (int round = 0; round < kMaxRounds; ++round) {
    if (round >= kMinRounds && seconds_since(t0) >= seconds) break;
    ScopedSpan round_span(rec, "probes");
    const bool first = round == 0;

    // fem: mesh and the constant operators.
    std::unique_ptr<fem::Mesh> mesh;
    {
      ScopedSpan s(rec, "fem.mesh");
      mesh = std::make_unique<fem::Mesh>(lc.scenario.mesh);
    }
    const int n = mesh->num_nodes();
    const fem::ShapeTable shape;
    solver::CsrMatrix lap;
    {
      ScopedSpan s(rec, "fem.operators");
      lap = fem::assemble_pressure_laplacian(*mesh, shape);
      const solver::CsrMatrix dtm =
          fem::assemble_dt_mass(*mesh, lc.scenario.physics, shape);
      const std::vector<double> lumped =
          fem::assemble_lumped_mass(*mesh, shape);
      check(dtm.rows() == n && static_cast<int>(lumped.size()) == n,
            "operator sizes do not match the mesh");
    }

    // miniapp: loop setup and one assembly pass on a fresh Vpu.
    std::unique_ptr<miniapp::TimeLoop> loop;
    {
      ScopedSpan s(rec, "miniapp.timeloop_setup");
      loop = std::make_unique<miniapp::TimeLoop>(*mesh, lc.scenario, lc.loop);
    }
    const fem::State plain(*mesh);
    const fem::State& state = lc.transient ? loop->state() : plain;
    miniapp::MiniAppResult assembly;
    {
      const miniapp::MiniApp ma(*mesh, state, app);
      sim::Vpu vpu(machine);
      ScopedSpan s(rec, "miniapp.assembly");
      assembly = ma.run(vpu);
    }
    if (first) {
      miniapp::MiniAppConfig scalar_app = app;
      scalar_app.vector_size = 16;
      scalar_app.opt = miniapp::OptLevel::kScalar;
      sim::Vpu svpu(platforms::scalar_variant(machine));
      const double scalar_cycles =
          miniapp::MiniApp(*mesh, state, scalar_app).run(svpu).cycles;
      const double speedup = scalar_cycles / assembly.cycles;
      sink.put("miniapp.assembly_cycles", assembly.cycles);
      sink.put("sim.speedup_vs_scalar", speedup);
      sink.put("sim.paper_err", std::abs(speedup / kPaperSpeedup - 1.0));
      if (!lc.transient) {
        miniapp::MiniAppConfig semi = app;
        semi.scheme = fem::Scheme::kSemiImplicit;
        sim::Vpu mvpu(machine);
        momentum_system = miniapp::MiniApp(*mesh, state, semi).run(mvpu);
      }
    }

    // Manufactured solutions from the seed: x* per momentum component and
    // for the pressure, with b = A·x*.
    if (first) {
      std::uint64_t stream = seed;
      ustar = manufactured(static_cast<std::size_t>(fem::kDim * n), stream);
      xstar = manufactured(static_cast<std::size_t>(n), stream);
    }

    // solver: the blocked momentum solve on the assembled operator K.
    {
      const solver::CsrMatrix& k =
          (lc.transient ? assembly : momentum_system).matrix;
      const std::size_t nn = static_cast<std::size_t>(n);
      std::vector<double> b(ustar.size());
      for (std::size_t d = 0; d < fem::kDim; ++d) {
        k.spmv(std::span<const double>(ustar).subspan(d * nn, nn),
               std::span<double>(b).subspan(d * nn, nn));
      }
      std::vector<double> x(b.size(), 0.0);
      solver::KrylovWorkspace ws;
      sim::Vpu vpu(machine);
      std::vector<solver::SolveReport> reps;
      {
        ScopedSpan s(rec, "solver.momentum");
        reps = solver::vbicgstab_multi(vpu, k, b, x, fem::kDim,
                                       lc.loop.momentum, vs, &ws, format);
      }
      if (first) {
        int iters = 0;
        for (const solver::SolveReport& r : reps) {
          iters += r.iterations;
          count_solve(r);
        }
        sink.put("solver.momentum_iters", iters);
      }
      check(relative_error(x, ustar) <= kRecoveryTolerance,
            "vbicgstab_multi does not recover the manufactured velocity");
    }

    // solver: the pinned pressure Laplacian in solve order.
    fem::pin_dirichlet(lap, lc.scenario.pressure_pins(*mesh));
    std::vector<int> perm;
    if (lc.loop.rcm_renumber) {
      perm = fem::rcm_ordering(mesh->node_adjacency());
      lap = solver::permute_symmetric(lap, perm);
    }
    std::vector<double> b(static_cast<std::size_t>(n));
    lap.spmv(xstar, b);
    const solver::SolveOptions popt = lc.loop.pressure;
    {
      std::vector<double> x(static_cast<std::size_t>(n), 0.0);
      solver::KrylovWorkspace ws;
      sim::Vpu vpu(machine);
      solver::SolveReport rep;
      {
        ScopedSpan s(rec, "solver.pressure");
        rep = solver::vcg(vpu, lap, b, x, popt, vs, &ws, format);
      }
      if (first) {
        count_solve(rep);
        sink.put("solver.pressure_iters", rep.iterations);
        sink.put("solver.pressure_cycles", vpu.counters().total_cycles());
      }
      check(relative_error(x, xstar) <= kRecoveryTolerance,
            "vcg does not recover the manufactured pressure solution");
    }
    {
      fem::MeshPartition part =
          fem::partition_mesh(*mesh, lc.loop.shards, strip, perm);
      solver::ShardedCg sharded(std::move(part.plan), lap, machine, vs,
                                miniapp::kPressurePhase);
      std::vector<double> x(static_cast<std::size_t>(n), 0.0);
      sim::Vpu coord(machine);
      solver::SolveReport rep;
      {
        ScopedSpan s(rec, "solver.sharded");
        rep = sharded.solve(coord, b, x, popt);
      }
      if (first) {
        count_solve(rep);
        double lines = 0.0;
        double messages = 0.0;
        for (int p = 0; p < sharded.shards(); ++p) {
          lines += static_cast<double>(
              sharded.shard_vpu(p).counters().halo_lines_recv);
          messages += static_cast<double>(
              sharded.shard_vpu(p).counters().halo_messages);
        }
        sink.put("solver.makespan_cycles", sharded.makespan_cycles());
        sink.put("solver.halo_lines", lines);
        sink.put("solver.halo_messages", messages);
      }
      check(relative_error(x, xstar) <= kRecoveryTolerance,
            "ShardedCg does not recover the manufactured pressure solution");
    }

    // sim: host time per modelled instruction of repeated SpMVs.
    {
      solver::OperatorMirror op;
      op.assign(lap, format, strip);
      const std::vector<double> x(static_cast<std::size_t>(n), 1.0);
      std::vector<double> y(static_cast<std::size_t>(n));
      sim::Vpu vpu(machine);
      const Clock::time_point s0 = Clock::now();
      {
        ScopedSpan s(rec, "sim.spmv");
        do {
          op.apply(vpu, x, y, vs);
        } while (seconds_since(s0) < kReplaySeconds);
      }
      spmv_ns_per_instr.push_back(
          1e9 * rec.spans().back().seconds() /
          static_cast<double>(vpu.counters().total_instrs()));
    }

    // mem: host time per line of a standalone hierarchy replaying the
    // line stream of one SpMV.
    {
      const solver::EllMatrix ell(lap);
      const std::vector<double> x(static_cast<std::size_t>(n), 1.0);
      mem::MemoryHierarchy h(machine.memory);
      const Clock::time_point s0 = Clock::now();
      {
        ScopedSpan s(rec, "mem.replay");
        do {
          replay_spmv_lines(h, ell, x, strip);
        } while (seconds_since(s0) < kReplaySeconds);
      }
      ns_per_line.push_back(1e9 * rec.spans().back().seconds() /
                            static_cast<double>(h.l1_accesses()));
    }

    // miniapp: checkpoint IO.  Workloads that write no checkpoint get one
    // of their own state: both field levels and the run's counters.
    if (first && ckpt_files.empty()) {
      miniapp::TimeLoopCheckpoint c;
      c.config_hash = miniapp::timeloop_config_hash(lc.scenario.name, *mesh,
                                                    lc.loop, machine);
      c.next_step = lc.loop.steps;
      const fem::State& st = loop->state();
      c.unknowns.assign(st.unknowns().begin(), st.unknowns().end());
      c.unknowns_old.assign(st.unknowns_old().begin(),
                            st.unknowns_old().end());
      c.total_counters = e2e.total;
      c.phase_counters = e2e.phase;
      ckpt_files.push_back(ckpt_dir + "/state.ckpt");
      miniapp::save_checkpoint(ckpt_files.back(), c);
    }
    for (const std::string& f : ckpt_files) {
      miniapp::TimeLoopCheckpoint c;
      {
        ScopedSpan s(rec, "miniapp.ckpt_load");
        c = miniapp::load_checkpoint(f);
      }
      ScopedSpan s(rec, "miniapp.ckpt_save");
      miniapp::save_checkpoint(ckpt_dir + "/resaved.ckpt", c);
    }
    if (first) {
      std::vector<double> mb;
      for (const std::string& f : ckpt_files) {
        mb.push_back(static_cast<double>(fs::file_size(f)) / (1024.0 * 1024.0));
      }
      sink.put("miniapp.ckpt_mb", summarize(mb).median);
    }

    // core: campaign_ft's clean grid run point by point, then fanned out,
    // then written as CSV.  The fan-out must reproduce the serial runs.
    {
      std::vector<core::CampaignRun> serial;
      double serial_s = 0.0;
      for (const core::CampaignPoint& p : campaign.points) {
        {
          ScopedSpan s(rec, "core.run");
          serial.push_back(campaign.campaign->run(p));
        }
        serial_s += rec.spans().back().seconds();
      }
      std::vector<core::CampaignRun> fanned;
      {
        ScopedSpan s(rec, "core.fanout");
        fanned = campaign.campaign->run_points(campaign.points, campaign.jobs);
      }
      fanout_eff.push_back(serial_s /
                           (campaign.jobs * rec.spans().back().seconds()));
      for (std::size_t i = 0; i < fanned.size(); ++i) {
        check(same_counters(fanned[i].loop.total, serial[i].loop.total),
              "run_points does not reproduce the serial campaign runs");
      }
      std::ostringstream csv;
      {
        ScopedSpan s(rec, "core.csv");
        core::write_campaign_csv(csv, fanned);
      }
      const std::string text = csv.str();
      check(std::count(text.begin(), text.end(), '\n') ==
                static_cast<std::ptrdiff_t>(fanned.size()) + 1,
            "campaign CSV does not have one line per point plus the header");
      if (first) sink.put("core.csv_kb", static_cast<double>(text.size()) / 1024.0);
    }
  }

  sink.put("fem.mesh_s", summarize(rec.durations("fem.mesh")));
  sink.put("fem.operators_s", summarize(rec.durations("fem.operators")));
  sink.put("miniapp.timeloop_setup_s",
           summarize(rec.durations("miniapp.timeloop_setup")));
  sink.put("miniapp.assembly_s",
           summarize(rec.durations("miniapp.assembly")));
  sink.put("miniapp.ckpt_load_s",
           summarize(rec.durations("miniapp.ckpt_load")));
  sink.put("miniapp.ckpt_save_s",
           summarize(rec.durations("miniapp.ckpt_save")));
  sink.put("solver.momentum_s", summarize(rec.durations("solver.momentum")));
  sink.put("solver.pressure_s", summarize(rec.durations("solver.pressure")));
  sink.put("solver.sharded_s", summarize(rec.durations("solver.sharded")));
  sink.put("sim.spmv_ns_per_instr", summarize(spmv_ns_per_instr));
  sink.put("mem.ns_per_line", summarize(ns_per_line));
  sink.put("core.fanout_eff", summarize(fanout_eff));
  sink.put("core.csv_s", summarize(rec.durations("core.csv")));
  return error;
}

}  // namespace vecfd::bench
