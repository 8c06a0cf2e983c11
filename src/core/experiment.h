// vecfd::core — experiment runner.
//
// The paper's methodology (§3) is a measurement loop: run the instrumented
// mini-app on a machine, read the per-phase counters, evaluate the §2.2
// metrics, decide the next optimization.  This module packages one turn of
// that loop (run → Measurement) and the sweeps the evaluation section is
// built from (VECTOR_SIZE × optimization level × machine).
//
// Sweeps fan out over a thread pool: every sweep point owns an independent
// Vpu and MiniApp, the shared Mesh/State are only read, and results land in
// a pre-sized vector slot per point — so parallel runs are race-free and
// return measurements in the same deterministic order as a serial loop.
#pragma once

#include <array>
#include <span>
#include <vector>

#include "fem/mesh.h"
#include "fem/state.h"
#include "metrics/metrics.h"
#include "miniapp/config.h"
#include "miniapp/driver.h"
#include "platforms/platforms.h"
#include "sim/machine_config.h"

namespace vecfd::core {

/// One measured mini-app execution.
struct Measurement {
  sim::MachineConfig machine;
  miniapp::MiniAppConfig app;
  miniapp::PhasePlan plan;

  double total_cycles = 0.0;
  sim::Counters total;
  /// Per-phase counters, 1..kNumInstrumentedPhases (0 = outside).  Phase 9
  /// is the Krylov solve and stays zero unless app.run_solve is set.
  std::array<sim::Counters, miniapp::kNumInstrumentedPhases + 1> phase{};

  metrics::VectorMetrics overall;
  std::array<metrics::VectorMetrics, miniapp::kNumInstrumentedPhases + 1>
      phase_metrics{};

  /// Phase-9 solve convergence report (valid when has_solve).
  solver::SolveReport solve;
  bool has_solve = false;

  /// Assembled RHS (kept so callers can verify results / chain a solve).
  std::vector<double> rhs;

  double phase_cycles(int p) const { return phase[p].total_cycles(); }
  /// Fraction of total cycles spent in phase p.
  double phase_share(int p) const {
    return total_cycles > 0.0 ? phase_cycles(p) / total_cycles : 0.0;
  }
};

/// One point of a sweep: a machine plus a full mini-app configuration.
struct SweepPoint {
  sim::MachineConfig machine;
  miniapp::MiniAppConfig app;
};

class Experiment {
 public:
  /// Mesh and state must outlive the Experiment.
  Experiment(const fem::Mesh& mesh, const fem::State& state);

  /// Run one configuration on one machine.
  Measurement run(const sim::MachineConfig& machine,
                  const miniapp::MiniAppConfig& app) const;

  /// Run every sweep point, fanning out over @p jobs worker threads
  /// (jobs <= 0 → std::thread::hardware_concurrency).  Results are returned
  /// in point order regardless of scheduling, byte-identical to a serial
  /// loop over run().
  std::vector<Measurement> run_points(std::span<const SweepPoint> points,
                                      int jobs = 0) const;

  /// The full evaluation grid: sizes × levels on one machine, size-major
  /// (all levels of sizes[0], then sizes[1], ...).
  std::vector<Measurement> sweep_grid(
      const sim::MachineConfig& machine, miniapp::MiniAppConfig app,
      std::span<const int> sizes, std::span<const miniapp::OptLevel> levels,
      int jobs = 0) const;

  const fem::Mesh& mesh() const { return *mesh_; }
  const fem::State& state() const { return *state_; }

 private:
  const fem::Mesh* mesh_;
  const fem::State* state_;
};

/// All optimization levels in paper order.
inline constexpr miniapp::OptLevel kAllOptLevels[] = {
    miniapp::OptLevel::kScalar, miniapp::OptLevel::kVanilla,
    miniapp::OptLevel::kVec2, miniapp::OptLevel::kIVec2,
    miniapp::OptLevel::kVec1};

/// The vectorized levels the evaluation sweeps (§4 figures): everything the
/// auto-vectorizer produces, scalar baseline excluded.
inline constexpr miniapp::OptLevel kSweepOptLevels[] = {
    miniapp::OptLevel::kVanilla, miniapp::OptLevel::kVec2,
    miniapp::OptLevel::kIVec2, miniapp::OptLevel::kVec1};

}  // namespace vecfd::core
