// Deterministic fault injection and the graceful-degradation retry ladder
// (sim/fault_injection.h, core/campaign.h, DESIGN.md §10):
//
//   * the fault-plan grammar: explicit `kind@point[.step]` lists and
//     `seed=N:faults=K` specs parse, round-trip through describe(), and
//     reject malformed tokens by name;
//   * seeded plans are deterministic in (seed, campaign shape) and refuse
//     lookups before materialize();
//   * each in-run fault kind travels its advertised failure path: breakdown
//     through the pressure solver's instrumented failure exit (sharded
//     configs included), zero-diag through the momentum Jacobi setup exit,
//     nan-rhs all the way into a non-finite final divergence;
//   * the retry ladder degrades deflate → cheby → jacobi → shards 1 →
//     ell → csr-host, faults fire on attempt 0 only, a worker death
//     without retries is an isolated "failed" outcome that never disturbs
//     its sibling points, and the outcome CSV carries the
//     attempts/degraded/final_status digest.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/campaign.h"
#include "core/csv.h"
#include "platforms/platforms.h"
#include "sim/fault_injection.h"

namespace {

using namespace vecfd;
using core::Campaign;
using core::CampaignFtOptions;
using core::CampaignOutcome;
using core::CampaignPoint;
using core::RunExtras;
using sim::FaultKind;
using sim::FaultPlan;

// ---------------------------------------------------------------------------
// plan grammar
// ---------------------------------------------------------------------------

TEST(FaultPlan, ExplicitSpecRoundTripsThroughDescribe) {
  const std::string spec = "breakdown@2.1;nan-rhs@0;zero-diag@1.2;worker-death@3";
  FaultPlan plan = FaultPlan::parse(spec);
  EXPECT_FALSE(plan.seeded());
  EXPECT_FALSE(plan.empty());
  ASSERT_EQ(plan.faults().size(), 4u);
  EXPECT_EQ(plan.faults()[0].kind, FaultKind::kSolverBreakdown);
  EXPECT_EQ(plan.faults()[0].point, 2);
  EXPECT_EQ(plan.faults()[0].step, 1);
  EXPECT_EQ(plan.faults()[1].kind, FaultKind::kNanRhs);
  EXPECT_EQ(plan.faults()[1].point, 0);
  EXPECT_EQ(plan.faults()[1].step, 0);
  EXPECT_EQ(plan.faults()[3].kind, FaultKind::kWorkerDeath);

  // describe() is a parseable round-trip (worker-death drops the step).
  const FaultPlan again = FaultPlan::parse(plan.describe());
  ASSERT_EQ(again.faults().size(), plan.faults().size());
  for (std::size_t i = 0; i < plan.faults().size(); ++i) {
    EXPECT_EQ(again.faults()[i].kind, plan.faults()[i].kind);
    EXPECT_EQ(again.faults()[i].point, plan.faults()[i].point);
    EXPECT_EQ(again.faults()[i].step, plan.faults()[i].step);
  }
}

TEST(FaultPlan, LookupsAreByPoint) {
  FaultPlan plan = FaultPlan::parse("breakdown@1.2;worker-death@0");
  EXPECT_TRUE(plan.worker_death(0));
  EXPECT_FALSE(plan.worker_death(1));
  const sim::FaultSpec s1 = plan.spec_for(1);
  EXPECT_NE(s1.kind, FaultKind::kNone);
  EXPECT_TRUE(s1.fires(FaultKind::kSolverBreakdown, 2));
  EXPECT_FALSE(s1.fires(FaultKind::kSolverBreakdown, 1));
  EXPECT_FALSE(s1.fires(FaultKind::kNanRhs, 2));
  // worker-death is not an in-run fault: spec_for(0) stays disarmed.
  EXPECT_EQ(plan.spec_for(0).kind, FaultKind::kNone);
  EXPECT_EQ(plan.spec_for(7).kind, FaultKind::kNone);
}

TEST(FaultPlan, RejectsMalformedSpecsByName) {
  const char* bad[] = {
      "",                  // empty plan
      "bogus@0",           // unknown kind
      "breakdown",         // missing @point
      "breakdown@",        // empty point
      "breakdown@x",       // non-numeric point
      "breakdown@-1",      // negative point
      "breakdown@0.x",     // non-numeric step
      "breakdown@0;;nan-rhs@1",  // empty entry
      "seed=",             // empty seed
      "seed=abc",          // non-numeric seed
      "seed=1:bogus=2",    // unknown option
      "seed=1:faults=0",   // non-positive count
  };
  for (const char* spec : bad) {
    EXPECT_THROW(FaultPlan::parse(spec), std::invalid_argument)
        << "spec '" << spec << "' should not parse";
  }
}

TEST(FaultPlan, SeededPlansAreDeterministicAndGateLookups) {
  FaultPlan plan = FaultPlan::parse("seed=42:faults=3");
  EXPECT_TRUE(plan.seeded());
  EXPECT_FALSE(plan.empty()) << "an unmaterialized seeded plan is not empty";
  // Lookups before materialize() are a programming error, not a silent
  // no-fault answer.
  EXPECT_THROW((void)plan.spec_for(0), std::logic_error);
  EXPECT_THROW((void)plan.worker_death(0), std::logic_error);

  EXPECT_THROW(plan.materialize(0, 5), std::invalid_argument);
  EXPECT_THROW(plan.materialize(4, 0), std::invalid_argument);

  plan.materialize(/*num_points=*/4, /*steps=*/5);
  EXPECT_FALSE(plan.seeded());
  ASSERT_EQ(plan.faults().size(), 3u);
  for (const sim::PlannedFault& f : plan.faults()) {
    EXPECT_NE(f.kind, FaultKind::kNone);
    EXPECT_GE(f.point, 0);
    EXPECT_LT(f.point, 4);
    EXPECT_GE(f.step, 0);
    EXPECT_LT(f.step, 5);
  }

  // Same seed + shape → the identical plan; a different seed diverges.
  FaultPlan twin = FaultPlan::parse("seed=42:faults=3");
  twin.materialize(4, 5);
  EXPECT_EQ(twin.describe(), plan.describe());
  FaultPlan other = FaultPlan::parse("seed=43:faults=3");
  other.materialize(4, 5);
  EXPECT_NE(other.describe(), plan.describe());
}

// ---------------------------------------------------------------------------
// in-run fault paths (through Campaign::run and CampaignPoint::fault)
// ---------------------------------------------------------------------------

/// One-scenario campaign at test size.
Campaign small_campaign() {
  miniapp::Scenario scen = miniapp::scenario_by_name("cavity");
  scen.mesh.nx = 4;
  scen.mesh.ny = 4;
  scen.mesh.nz = 3;
  return Campaign({scen});
}

CampaignPoint small_point() {
  CampaignPoint p;
  p.scenario = 0;
  p.machine = platforms::riscv_vec();
  p.steps = 3;
  return p;
}

CampaignPoint faulted(CampaignPoint p, FaultKind kind, int step) {
  p.fault = {.kind = kind, .step = step};
  return p;
}

TEST(FaultInjection, BreakdownFailsThePressureSolveAtItsStep) {
  const Campaign campaign = small_campaign();
  const core::CampaignRun run =
      campaign.run(faulted(small_point(), FaultKind::kSolverBreakdown, 1));
  ASSERT_EQ(run.loop.steps.size(), 3u);
  EXPECT_TRUE(run.loop.steps[0].pressure.failure.empty());
  EXPECT_NE(run.loop.steps[1].pressure.failure.find("injected"),
            std::string::npos)
      << "got: " << run.loop.steps[1].pressure.failure;
  EXPECT_TRUE(run.loop.steps[2].pressure.failure.empty())
      << "the fault is one-shot, not sticky";
  EXPECT_GE(run.solver_failures, 1);
  EXPECT_TRUE(core::attempt_failed(run));
}

TEST(FaultInjection, BreakdownReachesShardedConfigsToo) {
  const Campaign campaign = small_campaign();
  CampaignPoint p = small_point();
  p.shards = 4;
  const core::CampaignRun run =
      campaign.run(faulted(p, FaultKind::kSolverBreakdown, 0));
  ASSERT_FALSE(run.loop.steps.empty());
  EXPECT_NE(run.loop.steps[0].pressure.failure.find("injected"),
            std::string::npos)
      << "sharded points must route the injected step through the failure "
         "exit (legacy path) instead of silently dropping the fault";
  EXPECT_TRUE(core::attempt_failed(run));
}

TEST(FaultInjection, ZeroDiagTripsEveryMomentumComponent) {
  const Campaign campaign = small_campaign();
  const core::CampaignRun run =
      campaign.run(faulted(small_point(), FaultKind::kZeroDiagonal, 1));
  ASSERT_EQ(run.loop.steps.size(), 3u);
  for (int d = 0; d < fem::kDim; ++d) {
    EXPECT_TRUE(run.loop.steps[0]
                    .momentum[static_cast<std::size_t>(d)]
                    .failure.empty());
    EXPECT_FALSE(run.loop.steps[1]
                     .momentum[static_cast<std::size_t>(d)]
                     .failure.empty())
        << "component " << d;
  }
  EXPECT_GE(run.solver_failures, fem::kDim);
  EXPECT_TRUE(core::attempt_failed(run));
}

TEST(FaultInjection, NanRhsSurfacesInFinalDivergence) {
  const Campaign campaign = small_campaign();
  const core::CampaignRun run =
      campaign.run(faulted(small_point(), FaultKind::kNanRhs, 1));
  EXPECT_FALSE(std::isfinite(run.final_divergence))
      << "a poisoned RHS must travel solve → correction → diagnostics, "
         "not be silently absorbed";
  EXPECT_TRUE(core::attempt_failed(run));
}

TEST(FaultInjection, DisarmedExtrasMatchThePlainRun) {
  const Campaign campaign = small_campaign();
  const core::CampaignRun plain = campaign.run(small_point());
  const core::CampaignRun extras = campaign.run(small_point(), RunExtras{});
  EXPECT_EQ(plain.final_divergence, extras.final_divergence);
  EXPECT_EQ(plain.total_cycles, extras.total_cycles);
  EXPECT_EQ(plain.solver_failures, 0);
  EXPECT_FALSE(core::attempt_failed(plain));
}

// ---------------------------------------------------------------------------
// degradation ladder + fault-tolerant sweep
// ---------------------------------------------------------------------------

TEST(RetryLadder, DegradeWalksPrecondThenShardsThenFormat) {
  CampaignPoint p;
  p.precond = solver::PrecondKind::kDeflate;
  p.shards = 4;
  p.format = solver::SpmvFormat::kSell;

  ASSERT_TRUE(core::degrade_point(p));
  EXPECT_EQ(p.precond, solver::PrecondKind::kCheby);
  ASSERT_TRUE(core::degrade_point(p));
  EXPECT_EQ(p.precond, solver::PrecondKind::kJacobi);
  ASSERT_TRUE(core::degrade_point(p));
  EXPECT_EQ(p.shards, 1);
  ASSERT_TRUE(core::degrade_point(p));
  EXPECT_EQ(p.format, solver::SpmvFormat::kEll);
  ASSERT_TRUE(core::degrade_point(p));
  EXPECT_EQ(p.format, solver::SpmvFormat::kCsrHost);
  EXPECT_FALSE(core::degrade_point(p)) << "bottom rung everywhere";
}

TEST(RetryLadder, BreakdownRecoversOnADegradedRung) {
  const Campaign campaign = small_campaign();
  CampaignPoint p = small_point();
  p.precond = solver::PrecondKind::kDeflate;
  const std::vector<CampaignPoint> points = {p};

  FaultPlan plan = FaultPlan::parse("breakdown@0.0");
  CampaignFtOptions opts;
  opts.faults = &plan;
  opts.retry.max_retries = 2;
  const std::vector<CampaignOutcome> outcomes =
      campaign.run_points_ft(points, opts, /*jobs=*/1);

  ASSERT_EQ(outcomes.size(), 1u);
  const CampaignOutcome& o = outcomes[0];
  EXPECT_EQ(o.attempts, 2) << "attempt 0 faulted, attempt 1 ran clean";
  EXPECT_TRUE(o.degraded);
  EXPECT_EQ(o.final_status, "degraded");
  EXPECT_TRUE(o.error.empty());
  // The fault fires on attempt 0 only and the retry stepped one rung down.
  EXPECT_EQ(o.requested.precond, solver::PrecondKind::kDeflate);
  EXPECT_EQ(o.run.point.precond, solver::PrecondKind::kCheby);
  EXPECT_EQ(o.run.solver_failures, 0);
}

TEST(RetryLadder, WorkerDeathWithoutRetriesIsIsolated) {
  const Campaign campaign = small_campaign();
  const std::vector<CampaignPoint> points = {small_point(), small_point()};

  FaultPlan plan = FaultPlan::parse("worker-death@0");
  CampaignFtOptions opts;
  opts.faults = &plan;
  const std::vector<CampaignOutcome> outcomes =
      campaign.run_points_ft(points, opts, /*jobs=*/1);

  ASSERT_EQ(outcomes.size(), 2u);
  EXPECT_EQ(outcomes[0].final_status, "failed");
  EXPECT_EQ(outcomes[0].attempts, 1);
  EXPECT_NE(outcomes[0].error.find("worker death"), std::string::npos)
      << "got: " << outcomes[0].error;
  EXPECT_EQ(outcomes[0].run.scenario, "cavity")
      << "a dead point still identifies itself in the CSV";

  // Per-point isolation: the sibling is untouched.
  EXPECT_EQ(outcomes[1].final_status, "ok");
  EXPECT_EQ(outcomes[1].attempts, 1);
  EXPECT_FALSE(outcomes[1].degraded);
  EXPECT_TRUE(outcomes[1].error.empty());
}

TEST(RetryLadder, OutcomeCsvCarriesTheRetryDigest) {
  const Campaign campaign = small_campaign();
  const std::vector<CampaignPoint> points = {small_point(), small_point()};
  FaultPlan plan = FaultPlan::parse("worker-death@0");
  CampaignFtOptions opts;
  opts.faults = &plan;
  const std::vector<CampaignOutcome> outcomes =
      campaign.run_points_ft(points, opts, /*jobs=*/1);

  std::ostringstream os;
  core::write_campaign_csv(os, std::span<const CampaignOutcome>(outcomes));
  std::istringstream is(os.str());
  std::string header, row0, row1;
  ASSERT_TRUE(std::getline(is, header));
  ASSERT_TRUE(std::getline(is, row0));
  ASSERT_TRUE(std::getline(is, row1));

  const std::string tail = ",attempts,degraded,final_status";
  ASSERT_GE(header.size(), tail.size());
  EXPECT_EQ(header.substr(header.size() - tail.size()), tail);
  EXPECT_EQ(row0.substr(row0.size() - std::string(",1,0,failed").size()),
            ",1,0,failed");
  EXPECT_EQ(row1.substr(row1.size() - std::string(",1,0,ok").size()),
            ",1,0,ok");
  // The dead point's numeric columns are all-zero placeholders, so the row
  // still has the full column count.
  const auto count_commas = [](const std::string& s) {
    std::size_t n = 0;
    for (char c : s) n += (c == ',');
    return n;
  };
  EXPECT_EQ(count_commas(row0), count_commas(header));
  EXPECT_EQ(count_commas(row1), count_commas(header));
}

TEST(RetryLadder, LegacyRowsReportSingleCleanAttempt) {
  const Campaign campaign = small_campaign();
  const std::vector<CampaignPoint> points = {small_point()};
  const std::vector<core::CampaignRun> runs =
      campaign.run_points(points, /*jobs=*/1);
  std::ostringstream os;
  core::write_campaign_csv(os, std::span<const core::CampaignRun>(runs));
  std::istringstream is(os.str());
  std::string header, row;
  ASSERT_TRUE(std::getline(is, header));
  ASSERT_TRUE(std::getline(is, row));
  EXPECT_EQ(row.substr(row.size() - std::string(",1,0,ok").size()),
            ",1,0,ok")
      << "plain runs carry the inert digest so the schema is uniform";
}

}  // namespace
