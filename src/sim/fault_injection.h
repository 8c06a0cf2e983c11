// vecfd::sim — deterministic fault injection for fault-tolerance testing.
//
// A long-lived campaign service must survive point failures (ROADMAP item
// 2): solver breakdowns, corrupted operators, poisoned right-hand sides,
// dying workers.  Reproducing those events with real hardware faults or
// timing races would make every recovery test flaky, so this header models
// them as a FAULT PLAN: a deterministic, seed-indexed list of (kind,
// campaign point, step) triples, parsed from a compact CLI spec
// (`vecfd-run --fault-plan`) or generated from a seed.  The plan is a pure
// lookup table — `spec_for()` / `worker_death()` are const and
// data-race-free, so the campaign fan-out can consult one shared plan from
// every worker.
//
// The four injectable kinds exercise the four recovery paths:
//
//   breakdown     the phase-10 pressure solver exits through its
//                 instrumented SolveReport::failure path at the chosen
//                 step (SolveOptions::inject_breakdown)
//   nan-rhs       the weak-divergence RHS feeding the pressure solve is
//                 NaN-poisoned host-side, so non-finite values must travel
//                 the full solve → correction → diagnostics pipeline and
//                 surface in final_divergence
//   zero-diag     the assembled momentum operator loses its first diagonal
//                 entry after the Dirichlet pass, tripping the Jacobi
//                 setup failure exit of every component solve
//   worker-death  the campaign worker running the point throws before the
//                 TimeLoop even starts — the per-point isolation /
//                 collect-all-errors path (core/campaign.h)
//
// In-run faults fire on a point's FIRST attempt only: the retry ladder
// re-runs the point with the fault disarmed (a transient fault, the common
// HPC case), so `--fault-plan` + `--max-retries` demonstrates recovery
// end to end.  Design notes: DESIGN.md §10.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace vecfd::sim {

enum class FaultKind {
  kNone,
  kSolverBreakdown,
  kNanRhs,
  kZeroDiagonal,
  kWorkerDeath,
};

constexpr const char* to_string(FaultKind k) {
  switch (k) {
    case FaultKind::kNone:            return "none";
    case FaultKind::kSolverBreakdown: return "breakdown";
    case FaultKind::kNanRhs:          return "nan-rhs";
    case FaultKind::kZeroDiagonal:    return "zero-diag";
    case FaultKind::kWorkerDeath:     return "worker-death";
  }
  return "?";
}

/// One armed in-run fault, threaded into a TimeLoop via
/// TimeLoopConfig::fault.  Default-constructed = disarmed (the default
/// config injects nothing, so the historic instruction stream is
/// untouched).
struct FaultSpec {
  FaultKind kind = FaultKind::kNone;
  int step = 0;  ///< 0-based step index at which the fault fires

  /// Does a fault of kind @p k fire at step @p at_step of this run?
  bool fires(FaultKind k, int at_step) const {
    return kind == k && step == at_step;
  }
};

/// One plan entry: fault @p kind at campaign point @p point; @p step is the
/// 0-based step within that point's run (ignored for kWorkerDeath, which
/// strikes before the run starts).
struct PlannedFault {
  FaultKind kind = FaultKind::kNone;
  int point = 0;
  int step = 0;
};

/// A deterministic campaign fault plan.  Two spellings:
///
///   explicit   `kind@point[.step]` entries joined with ';', e.g.
///              "breakdown@2.1;worker-death@0" — breakdown at step 1 of
///              point 2, worker death at point 0 (step defaults to 0)
///   seeded     "seed=42:faults=3" — three faults drawn from a splitmix64
///              stream; materialize(num_points, steps) maps the stream
///              onto the concrete campaign shape, identically for every
///              run with the same seed
class FaultPlan {
 public:
  FaultPlan() = default;

  /// Parse a plan spec (grammar above).
  /// @throws std::invalid_argument naming the offending token.
  static FaultPlan parse(const std::string& spec);

  /// True when the plan came from a `seed=` spec and still needs
  /// materialize() before lookups are allowed.
  bool seeded() const { return seed_.has_value(); }

  /// Expand a seeded plan onto a campaign of @p num_points points of
  /// @p steps steps each (deterministic in the seed; no-op for explicit
  /// plans).  @throws std::invalid_argument on a non-positive shape.
  void materialize(int num_points, int steps);

  bool empty() const { return faults_.empty() && !seed_.has_value(); }
  const std::vector<PlannedFault>& faults() const { return faults_; }

  /// The in-run fault armed for campaign point @p point (first matching
  /// entry; disarmed spec when none).  Pure lookup, safe to call
  /// concurrently.  @throws std::logic_error on an unmaterialized plan.
  FaultSpec spec_for(int point) const;

  /// Is a simulated worker death planned for @p point?
  bool worker_death(int point) const;

  /// Human-readable round-trip of the materialized plan ("breakdown@2.1").
  std::string describe() const;

 private:
  std::optional<std::uint64_t> seed_;
  int seed_faults_ = 1;
  std::vector<PlannedFault> faults_;
};

}  // namespace vecfd::sim
