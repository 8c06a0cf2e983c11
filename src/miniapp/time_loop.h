// vecfd::miniapp — transient semi-implicit time loop.
//
// One step of the incompressible pressure-projection scheme, every solve
// strip-mined at VECTOR_SIZE and feeding the same per-phase counters as the
// assembly study (phases in brackets):
//
//   [1–8]  semi-implicit assembly of K = (ρ/Δt)M + C(uⁿ) + V and the
//          momentum residual rhs (the existing mini-app phases)
//   [9]    blocked multi-RHS momentum BiCGStab: the kDim component systems
//          share ONE operator K (block-diagonal over components, DESIGN.md
//          §2), so the backward-Euler RHS block  b_d = rhs_d + (K − Mdt)·uⁿ_d
//          is formed with multi-RHS ELL SpMV (one value/index slab load
//          feeding kDim gather streams), the scenario's Dirichlet rows are
//          imposed per component, and K u*_d = b_d is solved for all
//          components at once by Jacobi-preconditioned vbicgstab_multi,
//          warm-started from uⁿ (DESIGN.md §5).  Per-column results are
//          bit-for-bit those of the sequential per-component path, which
//          TimeLoopConfig::blocked_momentum = false runs as the same code
//          one component at a time (the 9a–9c reference the
//          multirhs_speedup section of tools/bench_to_json compares
//          against)
//   [10]   pressure-Poisson CG:  L φ = −(ρ/Δt)·D u*  on the SPD stiffness
//          operator of fem/projection.h (vcg, pinned per the scenario)
//   [11]   BLAS-1 velocity correction  uⁿ⁺¹_d = u*_d − (Δt/ρ)·M_L⁻¹(Ĝφ)_d
//          and the pressure increment pⁿ⁺¹ = pⁿ + φ
//
// Host-side (uncounted, per the operator-setup policy of solver/vkernels.h):
// the constant operators L / Mdt / M_L (built once per loop), the per-step
// D/Ĝ FEM evaluations feeding phases 10/11, Dirichlet row edits and the
// divergence diagnostics.
//
// Verification hooks: every StepReport carries the Krylov convergence
// reports and the lumped-L2 norm of the weak divergence before and after
// projection, and scenarios with an analytic solution (Taylor–Green) make
// the whole loop checkable against closed form — see test_time_loop.
// Design notes: DESIGN.md §4.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "fem/mesh.h"
#include "fem/state.h"
#include "miniapp/config.h"
#include "miniapp/driver.h"
#include "miniapp/scenarios.h"
#include "sim/fault_injection.h"
#include "sim/vpu.h"
#include "solver/csr.h"
#include "solver/krylov.h"
#include "solver/sharding.h"

namespace vecfd::miniapp {

struct TimeLoopCheckpoint;  // miniapp/checkpoint.h

struct TimeLoopConfig {
  int steps = 5;
  int vector_size = 240;
  OptLevel opt = OptLevel::kVec1;
  solver::SolveOptions momentum{.max_iterations = 500,
                                .rel_tolerance = 1e-10, .precond = {}};
  solver::SolveOptions pressure{.max_iterations = 1000,
                                .rel_tolerance = 1e-10, .precond = {}};
  /// Phase 9/11 path: true (default) runs the fused multi-RHS block solve
  /// (vbicgstab_multi, shared operator slabs); false runs the same code on
  /// one component at a time, the sequential per-component solves 9a–9c
  /// (k = 1 blocks).  Both produce bit-identical fields and
  /// per-component reports — the flag exists for the co-design comparison
  /// (the multirhs_speedup section of tools/bench_to_json) and
  /// equivalence tests.
  bool blocked_momentum = true;
  /// Operator storage format of every instrumented SpMV (the phase-9 RHS
  /// formation and the momentum/pressure Krylov solves; DESIGN.md §6).
  /// Residual histories and fields are bit-identical across formats — the
  /// knob trades gather/pad counters and cycles, not numerics.
  solver::SpmvFormat format = solver::SpmvFormat::kEll;
  /// Reverse-Cuthill–McKee renumbering of the SOLVE space: the momentum
  /// and pressure operators are permuted to P·A·Pᵀ (fem::rcm_ordering)
  /// and the RHS/unknown vectors are marshalled into solve order and back
  /// around each Krylov solve (host-side, per the operator-setup policy of
  /// solver/vkernels.h — the win is measured inside the solve's gathers).
  /// The solved SYSTEM is identical; the permuted dot products reassociate,
  /// so residual histories differ from the unpermuted run in the last ulps
  /// while the returned fields agree to solver tolerance (the round-trip
  /// test of test_format_equivalence).
  bool rcm_renumber = false;
  /// Preconditioner rung of the phase-10 pressure solve (the ladder of
  /// solver/preconditioner.h; `vecfd-run --precond`).  kJacobi reproduces
  /// the historic instruction stream bit for bit; kCheby and kDeflate
  /// trade more instrumented work per iteration for fewer iterations.
  /// For kDeflate the loop builds the structured coarse space itself
  /// (fem::structured_aggregates at a fixed block factor of 2, composed
  /// with the RCM permutation when rcm_renumber is set).
  solver::PrecondKind precond = solver::PrecondKind::kJacobi;
  /// Domain-decomposition shard count of the phase-10 pressure solve
  /// (DESIGN.md §9).  shards > 1 partitions the solve-ordered node range
  /// into strip-aligned subdomains (fem::partition_mesh), runs the CG on
  /// one instrumented Vpu per shard (solver::ShardedCg) and prices ghost
  /// refreshes through the halo counters.  Fields and residual histories
  /// are BIT-identical for every shard count; the knob trades the BSP
  /// makespan and halo-volume counters, not numerics.  The sharded path
  /// serves the kJacobi rung on vector machines; every other combination
  /// (scalar machines, cheby/deflate rungs, a zero operator diagonal)
  /// falls back to the identical-by-construction single-Vpu path.
  int shards = 1;
  /// Epoch length of the checkpoint/restart protocol (miniapp/checkpoint.h,
  /// DESIGN.md §10).  N > 0 makes every N-th step boundary a MEASURED
  /// EVENT: the accumulated state is captured (and handed to the sink, if
  /// one is set) and every memory hierarchy is flushed — caches cold,
  /// canonical first-touch map forgotten — so each epoch's counter stream
  /// is a pure function of the bit-identical fields and a restarted
  /// process reproduces it exactly.  Fields and residual histories are
  /// bit-identical across ALL cadences (the cache model is tag-only); the
  /// counter stream is bit-identical per cadence.  0 (default) leaves the
  /// historic stream untouched.
  int checkpoint_every = 0;
  /// Deterministic fault injected into THIS run (sim/fault_injection.h):
  /// breakdown fails the phase-10 solve through its instrumented failure
  /// exit, nan-rhs poisons the weak-divergence RHS host-side, zero-diag
  /// zeroes the first momentum diagonal after the Dirichlet pass.  The
  /// default spec is disarmed and injects nothing.
  sim::FaultSpec fault{};
};

/// Per-step convergence and incompressibility diagnostics.
struct StepReport {
  double time = 0.0;  ///< t^{n+1} of this step
  /// Per-component momentum reports (phase 9) — under the blocked solve
  /// these are the per-column reports of vbicgstab_multi.
  std::array<solver::SolveReport, fem::kDim> momentum;
  solver::SolveReport pressure;                         ///< phase 10
  /// Lumped-L2 norm ‖div u‖ = sqrt(Σ_a D_a²/M_L[a]) of the weak divergence
  /// before (u*) and after (uⁿ⁺¹) the projection.
  double div_before = 0.0;
  double div_after = 0.0;
  double cycles = 0.0;  ///< cycles charged during this step
};

struct TimeLoopResult {
  std::vector<StepReport> steps;
  bool all_converged = true;  ///< every Krylov solve of every step converged

  sim::Counters total;               ///< whole-run counters (all Vpus)
  std::vector<sim::Counters> phase;  ///< 0..kNumInstrumentedPhases
  double cycles = 0.0;
  /// Critical-path cycles of the phase-10 pressure solves: the BSP
  /// makespan of ShardedCg when the sharded path ran, otherwise the
  /// phase-10 serial cycle total.  THE strong-scaling metric of the
  /// shard_scaling section of tools/bench_to_json; cycles/total keep
  /// counting ALL work (shard counters are aggregated in), so
  /// conservation still holds.
  double pressure_makespan_cycles = 0.0;
};

/// Runs N semi-implicit pressure-projection steps of a Scenario on a
/// simulated machine.  Owns its State (initialized from the scenario);
/// the mesh must outlive the loop.  Distinct TimeLoops over one shared
/// Mesh are safe to run concurrently (each owns its State and Vpu) — the
/// campaign fan-out of core/campaign.h builds on this.
class TimeLoop {
 public:
  TimeLoop(const fem::Mesh& mesh, const Scenario& scenario,
           TimeLoopConfig cfg);

  const TimeLoopConfig& config() const { return cfg_; }
  const Scenario& scenario() const { return scen_; }
  const fem::State& state() const { return state_; }
  double time() const { return time_; }

  /// Advance cfg.steps steps on @p vpu.  Resets the machine first; calling
  /// run() again continues from the current fields and time.  After
  /// restore(), the next run() executes only the remaining steps and
  /// returns the SAME TimeLoopResult (steps, counters, histories, bit for
  /// bit) as the uninterrupted run with the same checkpoint cadence.
  TimeLoopResult run(sim::Vpu& vpu);

  /// Arm checkpoint capture: with cfg.checkpoint_every = N > 0, @p sink
  /// receives the accumulated state at every N-th step boundary and once
  /// more at run completion (so a finished point replays identically under
  /// --resume).  @p config_hash is stamped into every checkpoint and
  /// verified by restore() — compute it with timeloop_config_hash().
  void set_checkpoint_sink(
      std::uint64_t config_hash,
      std::function<void(const TimeLoopCheckpoint&)> sink);

  /// Rewind this (freshly constructed) loop to a checkpoint: fields, time,
  /// step cursor and the carried reports/counters.  The next run() resumes
  /// from checkpoint.next_step.  @throws std::runtime_error on a config
  /// hash mismatch or a checkpoint that does not fit this loop's shape.
  void restore(const TimeLoopCheckpoint& checkpoint,
               std::uint64_t expected_hash);

 private:
  void apply_velocity_bc(std::vector<double>& vel, double t) const;
  double divergence_norm(const std::vector<double>& div) const;

  const fem::Mesh* mesh_;
  Scenario scen_;
  TimeLoopConfig cfg_;
  fem::State state_;
  MiniApp app_;
  double time_ = 0.0;

  // constant host-side operators (see header comment)
  solver::CsrMatrix poisson_;         ///< pinned SPD Laplacian (phase 10);
                                      ///< RCM-permuted when rcm_renumber
  solver::CsrMatrix dtmass_;          ///< dtfac-weighted consistent mass
  std::vector<double> lumped_inv_;    ///< 1 / M_L
  std::vector<int> pressure_pins_;

  // RCM solve-space machinery (empty unless cfg.rcm_renumber).  The
  // momentum PATTERN is constant across steps, so its permuted twin and
  // the nnz value map are built once; per step only the values are
  // refreshed in place (no allocation churn of Vpu-touched buffers — the
  // determinism requirement of mem/memory_hierarchy.h).
  std::vector<int> rcm_perm_;               ///< solve index → node
  solver::CsrMatrix mom_perm_;              ///< P·K·Pᵀ pattern + values
  std::vector<std::ptrdiff_t> mom_value_map_;  ///< permuted nnz → K nnz

  /// Builds the sharded pressure context for @p vpu's machine, or null
  /// when cfg.shards == 1 or the combination falls back to the legacy
  /// path (scalar machine, non-Jacobi rung, zero operator diagonal).
  std::unique_ptr<solver::ShardedCg> make_sharded(const sim::Vpu& vpu,
                                                  int slice) const;

  // Checkpoint/restart state (miniapp/checkpoint.h).  carried_ is the run
  // so far as restore() rebuilt it — steps, convergence, counters and
  // makespan — and the next run() starts from it.  It stays empty unless
  // restore() was called, so a fresh run starts from zero.
  std::uint64_t ckpt_hash_ = 0;
  std::function<void(const TimeLoopCheckpoint&)> ckpt_sink_;
  TimeLoopResult carried_;
};

}  // namespace vecfd::miniapp
