// vecfd::core — transient co-design campaigns.
//
// The assembly study sweeps VECTOR_SIZE × optimization level on one machine
// (core/experiment.h); the transient study batches whole time-loop runs
// over scenario × platform × VECTOR_SIZE, on the same work-stealing fan-out
// (core/parallel.h).  Every campaign point owns its TimeLoop (scenario
// state) and Vpu; the per-scenario meshes are built once and shared
// read-only, so parallel campaigns return results in deterministic point
// order exactly like the assembly sweeps.
#pragma once

#include <array>
#include <span>
#include <string>
#include <vector>

#include "fem/mesh.h"
#include "metrics/metrics.h"
#include "miniapp/scenarios.h"
#include "miniapp/time_loop.h"
#include "sim/fault_injection.h"
#include "sim/machine_config.h"

namespace vecfd::core {

/// One transient campaign point: the loop knobs (every TimeLoopConfig
/// field, defaults included), plus which scenario (index into the
/// campaign's scenario list) and which machine.  Campaign::run hands the
/// point to the TimeLoop as its config unchanged.  Fields and residual
/// histories are bit-identical across shard counts, so per-point
/// convergence columns (iterations, failures, divergence) are
/// shard-invariant by contract (DESIGN.md §9).
struct CampaignPoint : miniapp::TimeLoopConfig {
  int scenario = 0;
  sim::MachineConfig machine;
};

/// One executed campaign point: the full TimeLoopResult plus the §2.2
/// metrics per phase (1..kNumInstrumentedPhases) and a convergence digest.
struct CampaignRun {
  std::string scenario;
  CampaignPoint point;
  miniapp::TimeLoopResult loop;

  double total_cycles = 0.0;
  metrics::VectorMetrics overall;
  std::array<metrics::VectorMetrics, miniapp::kNumInstrumentedPhases + 1>
      phase_metrics{};

  int momentum_iterations = 0;  ///< Σ over steps and components (phase 9)
  int pressure_iterations = 0;  ///< Σ over steps (phase 10)
  double final_divergence = 0.0;  ///< div_after of the last step
  bool all_converged = false;
  /// Σ over steps of solves that exited through SolveReport::failure
  /// (setup errors such as a zero operator diagonal) — distinct from a
  /// mere non-convergence, which leaves failure empty.
  int solver_failures = 0;

  double phase_cycles(int p) const {
    return loop.phase[static_cast<std::size_t>(p)].total_cycles();
  }
};

/// Per-run checkpoint sink threaded into one Campaign::run invocation.
/// The cadence (checkpoint_every) and any planned fault live on the point
/// itself.  The default object is inert — run(point) delegates with
/// RunExtras{}.
struct RunExtras {
  /// Checkpoint file this run saves to (and resumes from, when `resume`).
  /// Empty = no sink even if checkpoint_every > 0 (epoch flushes still
  /// happen — the cadence, not the sink, defines the counter stream).
  std::string checkpoint_file;
  /// Restore from `checkpoint_file` before running, if the file exists.
  /// The checkpoint's config hash must match this point's; a mismatch
  /// throws rather than silently breaking bit-identity.
  bool resume = false;
};

/// Graceful-degradation retry budget for fault-tolerant campaigns.
struct RetryPolicy {
  /// Retries after the first attempt (0 = fail immediately, the historic
  /// behaviour).  Each retry first steps the point down one rung of
  /// degrade_point()'s ladder.
  int max_retries = 0;
};

/// Campaign-level fault-tolerance options (run_points_ft).
struct CampaignFtOptions {
  RetryPolicy retry;
  /// Deterministic fault plan, already materialized for this campaign's
  /// point count (nullptr = no faults).  Faults fire on attempt 0 only:
  /// retries are the recovery path and must run clean.
  const sim::FaultPlan* faults = nullptr;
  /// Directory for per-point checkpoint files (`point_<i>.ckpt`); empty =
  /// no checkpointing.  Checkpoints are written on attempt 0 only — a
  /// degraded retry runs under a different config hash and must not
  /// overwrite a resumable attempt-0 checkpoint with an unloadable one.
  std::string checkpoint_dir;
  int checkpoint_every = 0;
  /// Resume every point from its checkpoint file where one exists.
  bool resume = false;
};

/// One fault-tolerant campaign outcome: the final run (possibly from a
/// degraded point), the originally requested point, and the retry digest
/// that lands in the campaign CSV (`attempts`, `degraded`,
/// `final_status`).
struct CampaignOutcome {
  CampaignRun run;
  CampaignPoint requested;
  int attempts = 0;
  bool degraded = false;
  /// "ok" | "degraded" | "failed".
  std::string final_status;
  /// Exception text of the final attempt, when that attempt never produced
  /// a run (e.g. an un-retried worker death).  Empty whenever `run` is
  /// real — including runs that completed but failed their solves.
  std::string error;
};

/// Step @p point one rung down the graceful-degradation ladder, cheapest
/// robustness concession first: preconditioner deflate → cheby → jacobi,
/// then shards → 1, then operator format sell → ell → csr-host.  Returns
/// false when the point is already on the bottom rung everywhere.
bool degrade_point(CampaignPoint& point);

/// Did a completed run fail?  True on instrumented solver failures or a
/// non-finite final divergence — NOT on mere non-convergence, which the
/// campaign CSV already reports per point without failing it.
bool attempt_failed(const CampaignRun& run);

class Campaign {
 public:
  /// Builds one mesh per scenario up front (campaigns share them
  /// read-only).  Callers wanting refined/smaller meshes adjust
  /// Scenario::mesh before constructing the Campaign.
  explicit Campaign(std::vector<miniapp::Scenario> scenarios =
                        miniapp::all_scenarios());

  const std::vector<miniapp::Scenario>& scenarios() const {
    return scenarios_;
  }
  const fem::Mesh& mesh(int scenario_index) const {
    return meshes_[static_cast<std::size_t>(scenario_index)];
  }

  /// The full grid: every scenario × @p machines × @p sizes, scenario-major
  /// then machine then size.
  std::vector<CampaignPoint> grid(std::span<const sim::MachineConfig> machines,
                                  std::span<const int> sizes,
                                  int steps) const;

  /// Run one point.
  CampaignRun run(const CampaignPoint& point) const;

  /// Run one point with a checkpoint sink and/or resume (see RunExtras).
  CampaignRun run(const CampaignPoint& point, const RunExtras& extras) const;

  /// Run every point, fanning out over @p jobs workers (0 = all cores,
  /// 1 = serial); results land in point order.  Exceptions no longer
  /// short-circuit the sweep: every point runs, then the first captured
  /// exception (in point order) is rethrown.
  std::vector<CampaignRun> run_points(std::span<const CampaignPoint> points,
                                      int jobs = 0) const;

  /// Fault-tolerant sweep: run every point with per-point isolation (a
  /// throwing point becomes a "failed" outcome, never an exception here),
  /// injecting @p opts.faults on first attempts and walking the
  /// degradation ladder on failures up to the retry budget.  Outcomes land
  /// in point order.
  std::vector<CampaignOutcome> run_points_ft(
      std::span<const CampaignPoint> points, const CampaignFtOptions& opts,
      int jobs = 0) const;

 private:
  std::vector<miniapp::Scenario> scenarios_;
  std::vector<fem::Mesh> meshes_;
};

}  // namespace vecfd::core
