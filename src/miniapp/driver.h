// vecfd::miniapp — mini-app driver: runs the 8 phases over all
// VECTOR_SIZE chunks of a mesh on a simulated machine and returns both the
// numerical result (global RHS / matrix) and the per-phase hardware
// counters the paper's analysis is built on.
#pragma once

#include <vector>

#include "fem/mesh.h"
#include "fem/shape.h"
#include "fem/state.h"
#include "miniapp/chunk.h"
#include "miniapp/config.h"
#include "miniapp/plan.h"
#include "sim/vpu.h"
#include "solver/csr.h"
#include "solver/krylov.h"

namespace vecfd::miniapp {

struct MiniAppResult {
  // ---- numerical output ---------------------------------------------------
  std::vector<double> rhs;     ///< assembled global RHS, [node·kDim]
  solver::CsrMatrix matrix;    ///< assembled momentum operator
  bool has_matrix = false;     ///< true under the semi-implicit scheme

  /// Phase-9 solve output (config.run_solve): the x-momentum solution and
  /// the Krylov convergence report.
  std::vector<double> solution;
  solver::SolveReport solve;
  bool has_solve = false;

  // ---- measurement -------------------------------------------------------
  sim::Counters total;                 ///< whole-run counters
  std::vector<sim::Counters> phase;    ///< index 1..9 (0 = outside phases)
  double cycles = 0.0;                 ///< convenience: total cycles
};

/// The eight instrumented phases of one assembly pass (§2.3).
inline constexpr int kNumPhases = 8;

/// Phase id of the chained Krylov solve (config.run_solve).  In the
/// transient loop the per-component momentum BiCGStab solves (9a–9c) are
/// all attributed here.
inline constexpr int kSolvePhase = 9;

/// Phase id of the pressure-Poisson CG solve (TimeLoop only).
inline constexpr int kPressurePhase = 10;

/// Phase id of the BLAS-1 velocity correction (TimeLoop only).
inline constexpr int kCorrectionPhase = 11;

/// Phases carried by every MiniAppResult / Measurement / CSV row: the eight
/// assembly phases, the momentum solve, the pressure solve and the velocity
/// correction.  This is the single source of truth the CSV header and row
/// writers derive their column count from; phases 10/11 stay zero outside
/// the transient loop.
inline constexpr int kNumInstrumentedPhases = kCorrectionPhase;
static_assert(kNumInstrumentedPhases <= sim::kDefaultNumPhases,
              "default Vpu profiler must cover every instrumented phase");

class MiniApp {
 public:
  /// The mesh and state must outlive the MiniApp.
  MiniApp(const fem::Mesh& mesh, const fem::State& state, MiniAppConfig cfg);

  const MiniAppConfig& config() const { return cfg_; }
  const fem::ShapeTable& shape() const { return shape_; }

  /// The modelled compiler's decisions for this configuration on @p machine.
  PhasePlan plan(const sim::MachineConfig& machine) const {
    return build_plan(machine, cfg_);
  }

  /// Execute the full assembly on @p vpu.  Resets the machine (counters,
  /// phases, caches) first so results are independent measurements.
  ///
  /// Thread safety: run() only reads the shared Mesh/State/ShapeTable and
  /// writes through @p vpu and the returned result, so concurrent calls on
  /// the same MiniApp (or on distinct MiniApps over one mesh) are safe as
  /// long as each caller owns its Vpu.  core::Experiment::run_points builds
  /// its sweep fan-out on this guarantee.
  MiniAppResult run(sim::Vpu& vpu) const;

  /// Run only the eight assembly phases WITHOUT resetting @p vpu and
  /// without snapshotting counters — the building block the transient
  /// TimeLoop repeats every step while counters accumulate across steps.
  /// Only the numerical fields (rhs / matrix) of @p res are filled; res
  /// and the chunk workspace @p ch are reset and reused in place.
  ///
  /// Callers that keep measuring after assembly (the chained solve, the
  /// transient loop) must route every pass through ONE res/ch pair kept
  /// alive for the whole measurement: the deterministic memory model
  /// renames host lines in first-touch order, so freeing a Vpu-touched
  /// buffer mid-measurement and letting a later allocation reuse its
  /// lines would make cache behaviour depend on allocator history (see
  /// mem/memory_hierarchy.h).  @p ch must have been built with this
  /// config's vector_size and scheme.
  void assemble_into(sim::Vpu& vpu, MiniAppResult& res,
                     ElementChunk& ch) const;

 private:
  const fem::Mesh* mesh_;
  const fem::State* state_;
  fem::ShapeTable shape_;
  MiniAppConfig cfg_;
};

}  // namespace vecfd::miniapp
