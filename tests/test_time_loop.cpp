// Verification of the transient semi-implicit time loop (miniapp::TimeLoop).
//
// The Taylor–Green scenario has a closed-form Navier–Stokes solution, which
// turns the whole loop — assembly, momentum BiCGStab, pressure-Poisson CG,
// projection — into a verifiable computation: the L2 velocity error must
// shrink under mesh refinement, and every step's projected velocity must be
// (nearly) discretely divergence-free.  The remaining tests pin the
// instrumentation contract: phases 9–11 carry live counters on every
// platform, the scalar machine never issues a vector instruction, and the
// solve-phase AVL tracks min(VECTOR_SIZE, vlmax).
#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "metrics/metrics.h"
#include "miniapp/time_loop.h"
#include "platforms/platforms.h"

namespace {

using namespace vecfd;

struct TgRun {
  double l2_error = 0.0;       ///< relative L2 velocity error vs analytic
  miniapp::TimeLoopResult res;
};

/// Run the Taylor–Green scenario on an nelem³ unit cube and measure the
/// final-time velocity error against the analytic solution.
TgRun run_taylor_green(int nelem, int steps, double dt, int vs = 64) {
  miniapp::Scenario s = miniapp::scenario_taylor_green();
  s.mesh.nx = s.mesh.ny = s.mesh.nz = nelem;
  s.physics.dt = dt;
  const fem::Mesh mesh(s.mesh);
  miniapp::TimeLoopConfig cfg;
  cfg.steps = steps;
  cfg.vector_size = vs;
  miniapp::TimeLoop loop(mesh, s, cfg);
  sim::Vpu vpu(platforms::riscv_vec());

  TgRun out;
  out.res = loop.run(vpu);
  double num = 0.0;
  double den = 0.0;
  const double t = loop.time();
  for (int n = 0; n < mesh.num_nodes(); ++n) {
    const auto e = s.analytic(mesh, n, t);
    for (int d = 0; d < fem::kDim; ++d) {
      const double diff = loop.state().velocity(n, d) - e[d];
      num += diff * diff;
      den += e[d] * e[d];
    }
  }
  out.l2_error = std::sqrt(num / den);
  return out;
}

TEST(TimeLoopTaylorGreen, ConvergesUnderMeshRefinement) {
  // Small dt so the O(h²) spatial error dominates the O(Δt) splitting
  // error; halving h must shrink the error by a clear factor (observed
  // ≈ 0.50 — the projection's lumped-mass gradient limits it above the
  // pure-interpolation 0.25).
  const TgRun coarse = run_taylor_green(4, 8, 0.0025);
  const TgRun fine = run_taylor_green(8, 8, 0.0025);
  ASSERT_TRUE(coarse.res.all_converged);
  ASSERT_TRUE(fine.res.all_converged);
  EXPECT_LT(coarse.l2_error, 1e-3);
  EXPECT_LT(fine.l2_error, 0.7 * coarse.l2_error)
      << "coarse=" << coarse.l2_error << " fine=" << fine.l2_error;
}

TEST(TimeLoopTaylorGreen, EveryStepIsNearlyDivergenceFree) {
  const TgRun run = run_taylor_green(4, 8, 0.0025);
  ASSERT_EQ(run.res.steps.size(), 8u);
  for (const miniapp::StepReport& st : run.res.steps) {
    // the projection must not amplify the divergence, and the projected
    // field must stay below tolerance (lumped-L2 norm of the weak
    // divergence; observed ≈ 1.5e-4 at this resolution)
    EXPECT_LE(st.div_after, st.div_before) << "t=" << st.time;
    EXPECT_LT(st.div_after, 1e-3) << "t=" << st.time;
  }
}

TEST(TimeLoopTaylorGreen, TighterTimeStepReducesError) {
  const TgRun big = run_taylor_green(6, 4, 0.01);    // T = 0.04
  const TgRun small = run_taylor_green(6, 16, 0.0025);
  ASSERT_TRUE(big.res.all_converged);
  ASSERT_TRUE(small.res.all_converged);
  EXPECT_LT(small.l2_error, 0.8 * big.l2_error)
      << "dt=0.01: " << big.l2_error << "  dt=0.0025: " << small.l2_error;
}

TEST(TimeLoop, Phases9To11CarryCountersOnEveryPlatform) {
  miniapp::Scenario s = miniapp::scenario_cavity();
  s.mesh = {.nx = 3, .ny = 3, .nz = 3, .distortion = 0.05};
  const fem::Mesh mesh(s.mesh);
  const sim::MachineConfig machines[] = {
      platforms::riscv_vec(), platforms::riscv_vec_scalar(),
      platforms::sx_aurora(), platforms::mn4_avx512()};
  for (const auto& m : machines) {
    miniapp::TimeLoopConfig cfg;
    cfg.steps = 2;
    cfg.vector_size = 32;
    miniapp::TimeLoop loop(mesh, s, cfg);
    sim::Vpu vpu(m);
    const auto res = loop.run(vpu);
    EXPECT_TRUE(res.all_converged) << m.name;
    ASSERT_EQ(static_cast<int>(res.phase.size()),
              miniapp::kNumInstrumentedPhases + 1);
    for (int p = 1; p <= miniapp::kNumInstrumentedPhases; ++p) {
      EXPECT_GT(res.phase[static_cast<std::size_t>(p)].total_cycles(), 0.0)
          << m.name << " phase " << p;
    }
    // phase shares account for every cycle (nothing leaks outside phases
    // except the uncounted host-side setup, which charges no Vpu cycles)
    double sum = 0.0;
    for (int p = 1; p <= miniapp::kNumInstrumentedPhases; ++p) {
      sum += res.phase[static_cast<std::size_t>(p)].total_cycles();
    }
    EXPECT_NEAR(sum, res.cycles, 1e-9 * res.cycles) << m.name;
    if (!m.vector_enabled) {
      EXPECT_EQ(res.total.vector_instrs(), 0u) << m.name;
    } else {
      EXPECT_GT(res.phase[miniapp::kSolvePhase].vmem_indexed_instrs, 0u)
          << m.name;  // the vgather SpMV reaches the momentum solve
      EXPECT_GT(res.phase[miniapp::kPressurePhase].vmem_indexed_instrs, 0u)
          << m.name;  // ...and the pressure solve
    }
  }
}

TEST(TimeLoop, SolvePhaseAvlTracksVectorSize) {
  miniapp::Scenario s = miniapp::scenario_cavity();
  s.mesh = {.nx = 6, .ny = 6, .nz = 6, .distortion = 0.05};
  const fem::Mesh mesh(s.mesh);
  const int vlmax = platforms::riscv_vec().vlmax;

  auto solve_avl = [&](int vs) {
    miniapp::TimeLoopConfig cfg;
    cfg.steps = 1;
    cfg.vector_size = vs;
    miniapp::TimeLoop loop(mesh, s, cfg);
    sim::Vpu vpu(platforms::riscv_vec());
    const auto res = loop.run(vpu);
    return metrics::compute(res.phase[miniapp::kSolvePhase], vlmax).avl;
  };

  const double avl_short = solve_avl(16);
  const double avl_long = solve_avl(240);
  EXPECT_NEAR(avl_short, 16.0, 2.0);
  EXPECT_GT(avl_long, 5.0 * avl_short);
}

TEST(TimeLoop, CavityRespectsLidAndWallConditions) {
  miniapp::Scenario s = miniapp::scenario_cavity();
  s.mesh = {.nx = 4, .ny = 4, .nz = 4, .distortion = 0.05};
  const fem::Mesh mesh(s.mesh);
  miniapp::TimeLoopConfig cfg;
  cfg.steps = 2;
  cfg.vector_size = 32;
  miniapp::TimeLoop loop(mesh, s, cfg);
  sim::Vpu vpu(platforms::riscv_vec());
  const auto res = loop.run(vpu);
  ASSERT_TRUE(res.all_converged);

  double interior_motion = 0.0;
  for (int n = 0; n < mesh.num_nodes(); ++n) {
    const auto p = mesh.node(n);
    if (mesh.is_boundary_node(n)) {
      const bool lid = std::abs(p[2] - mesh.config().lz) < 1e-9;
      EXPECT_DOUBLE_EQ(loop.state().velocity(n, 0), lid ? 1.0 : 0.0);
      EXPECT_DOUBLE_EQ(loop.state().velocity(n, 1), 0.0);
      EXPECT_DOUBLE_EQ(loop.state().velocity(n, 2), 0.0);
    } else {
      for (int d = 0; d < fem::kDim; ++d) {
        interior_motion += std::abs(loop.state().velocity(n, d));
      }
    }
  }
  EXPECT_GT(interior_motion, 1e-6);  // the lid drags the interior along
}

TEST(TimeLoop, RejectsDegenerateConfigs) {
  const miniapp::Scenario s = miniapp::scenario_cavity();
  const fem::Mesh mesh({.nx = 3, .ny = 3, .nz = 3});
  miniapp::TimeLoopConfig bad_steps;
  bad_steps.steps = 0;
  EXPECT_THROW(miniapp::TimeLoop(mesh, s, bad_steps), std::invalid_argument);

  miniapp::Scenario no_pins = s;
  no_pins.pressure_pins = [](const fem::Mesh&) { return std::vector<int>{}; };
  miniapp::TimeLoopConfig cfg;
  EXPECT_THROW(miniapp::TimeLoop(mesh, no_pins, cfg), std::invalid_argument);

  // The nested pressure rung must agree with the precond knob: a conflict
  // is refused by name instead of silently replaced, and agreement (the
  // shape config() hands back) stays legal.
  miniapp::TimeLoopConfig conflict;
  conflict.pressure.precond.kind = solver::PrecondKind::kCheby;
  try {
    miniapp::TimeLoop loop(mesh, s, conflict);
    ADD_FAILURE() << "a conflicting nested rung must throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("cheby"), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("jacobi"), std::string::npos)
        << e.what();
  }
  miniapp::TimeLoopConfig cheby;
  cheby.precond = solver::PrecondKind::kCheby;
  const miniapp::TimeLoop first(mesh, s, cheby);
  ASSERT_EQ(first.config().pressure.precond.kind, solver::PrecondKind::kCheby);
  EXPECT_NO_THROW(miniapp::TimeLoop(mesh, s, first.config()));
}

TEST(Scenarios, LibraryIsWellFormed) {
  const auto all = miniapp::all_scenarios();
  ASSERT_EQ(all.size(), 3u);
  EXPECT_EQ(all[0].name, "cavity");
  EXPECT_EQ(all[1].name, "channel");
  EXPECT_EQ(all[2].name, "taylor-green");
  for (const auto& s : all) {
    EXPECT_EQ(miniapp::scenario_by_name(s.name).name, s.name);
    EXPECT_TRUE(static_cast<bool>(s.initial)) << s.name;
    EXPECT_TRUE(static_cast<bool>(s.velocity_bc)) << s.name;
    EXPECT_TRUE(static_cast<bool>(s.pressure_pins)) << s.name;
  }
  EXPECT_FALSE(static_cast<bool>(all[0].analytic));
  EXPECT_TRUE(static_cast<bool>(all[2].analytic));
  EXPECT_THROW(miniapp::scenario_by_name("bogus"), std::invalid_argument);

  // Taylor–Green's analytic field is discretely consistent with its own
  // boundary data and starts from its own initial condition.
  const fem::Mesh mesh(all[2].mesh);
  std::array<double, fem::kDim> bc;
  for (int n = 0; n < mesh.num_nodes(); ++n) {
    const auto init = all[2].initial(mesh, n);
    const auto exact = all[2].analytic(mesh, n, 0.0);
    for (int c = 0; c < fem::kDofs; ++c) EXPECT_DOUBLE_EQ(init[c], exact[c]);
    if (mesh.is_boundary_node(n)) {
      ASSERT_TRUE(all[2].velocity_bc(mesh, n, 0.0, bc));
      for (int d = 0; d < fem::kDim; ++d) EXPECT_DOUBLE_EQ(bc[d], exact[d]);
    } else {
      EXPECT_FALSE(all[2].velocity_bc(mesh, n, 0.0, bc));
    }
  }
}

}  // namespace
