// vecfd::solver — domain-decomposition sharding of the SPD vcg path
// (DESIGN.md §9).
//
// A ShardPlan carves the solve-ordered index range [0, n) into P
// contiguous, strip-aligned ownership ranges plus per-shard overlap-1
// ghost sets; ShardedCg runs vcg's own recurrence (solver/cg_recurrence.h)
// on an execution space that distributes every vector value across P
// instrumented Vpus (one memory hierarchy per shard) and prices ghost
// refreshes through sim::HaloExchange.  BSP epochs ({…} = one epoch):
//
//   ‖v‖₂, r·z    {partials} + coordinator fold; a ‖v‖₂ rescan adds
//                {abs-max partials} and {scaled partials} + fold
//   r = b − A·x  exchange x, {vspmv → Ap, r = b − Ap}
//   z = M⁻¹r     {jacobi, copy z → p} before the loop, {jacobi} in it
//   A·p, p·Ap    exchange p, {vspmv, partials} + fold
//   x, r, p      {x += α·p, r −= α·Ap}, {p = z + β·p}
//   x = 0        {fill} (the zero-RHS exit)
//   every exit   gather owned x; the coordinator's cycles join the makespan
//
// P-independence contract: the solution field, every residual-history
// entry and the iteration/convergence outcome are BIT-identical to the
// single-Vpu solver::vcg for any shard count.  The proof obligations
// (each discharged in tests/test_partition.cpp and DESIGN.md §9):
//   1. ownership bounds are multiples of the effective-strip quantum, so
//      every global strip lies wholly inside one shard and the shard-local
//      for_strips loops reproduce the global strip decomposition;
//   2. reductions keep the global order: shards record their RAW per-strip
//      vredsum/vredmax partials and the coordinator folds them with the
//      same scalar recurrence (sadd / NaN-sticky max) over the global
//      strip sequence — never a shard-local pre-accumulation;
//   3. each shard's restricted operator is an EllMatrix row-range mirror
//      (EllMatrix::assign over the owned rows, columns renumbered to the
//      local ids) that keeps each owned row's CSR entry order with pads
//      that are exact fma no-ops (an fma chain seeded at +0.0 can never
//      produce −0.0, so a shorter local pad tail cannot change the stored
//      row result);
//   4. elementwise kernels are order-free per element, and ghost reads see
//      owner values copied bit-for-bit by HaloExchange before every
//      operator application.
//
// Cost model: shard Vpus price the distributed compute; the coordinator
// Vpu prices the serial reduction folds; HaloExchange prices communication
// volume in cache lines.  The BSP makespan (max shard delta per parallel
// epoch + all coordinator cycles) is the strong-scaling metric the
// shard_scaling section of tools/bench_to_json gates.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "sim/halo_exchange.h"
#include "sim/machine_config.h"
#include "sim/vpu.h"
#include "solver/csr.h"
#include "solver/krylov.h"
#include "solver/vkernels.h"

namespace vecfd::solver {

/// Contiguous strip-aligned partition of the solve-ordered range [0, n):
/// shard p owns [bounds[p], bounds[p+1]) and additionally sees the sorted
/// ghost ids ghosts[p] (its overlap-1 halo).  Local numbering per shard:
/// owned id g maps to g - bounds[p]; ghost g maps to num_owned(p) + its
/// position in ghosts[p].
struct ShardPlan {
  int shards = 1;
  int quantum = 1;  ///< strip quantum the interior bounds are aligned to
  std::vector<int> bounds;               ///< size shards+1, ascending
  std::vector<std::vector<int>> ghosts;  ///< per shard, sorted ascending

  int size() const { return bounds.empty() ? 0 : bounds.back(); }
  int num_owned(int p) const {
    return bounds[static_cast<std::size_t>(p) + 1] -
           bounds[static_cast<std::size_t>(p)];
  }
  int num_ghosts(int p) const {
    return static_cast<int>(ghosts[static_cast<std::size_t>(p)].size());
  }
  int local_size(int p) const { return num_owned(p) + num_ghosts(p); }
  /// Shard owning global id @p g.
  int owner(int g) const;
  /// Local index of @p g in shard @p p's numbering, or -1 if not present.
  int local_index(int p, int g) const;
};

/// Strip-aligned 1-D ownership bounds: bounds[p] is quantum·round(p·n /
/// (shards·quantum)) clamped into [0, n] (monotone by construction), and
/// bounds[shards] = n.  Guarantees |num_owned(p) − n/shards| ≤ quantum and
/// that every interior bound is a multiple of the quantum, so global
/// strips never straddle shards.
std::vector<int> strip_bounds(int n, int shards, int quantum);

/// solver::vcg's recurrence for the kJacobi rung on vector machines, run
/// sharded: P shard Vpus carry the distributed vector work, the
/// coordinator Vpu carries the reduction folds, HaloExchange refreshes
/// ghosts before each operator application.  Results are bit-identical to
/// vcg on every exit (see header comment); counters land on the shard Vpus
/// (aggregate via shard_vpu()) and the coordinator.  The shard operator is
/// always ELL, whatever SpmvFormat the caller runs elsewhere.
class ShardedCg {
 public:
  /// @throws std::runtime_error on a zero operator diagonal (the caller
  /// must fall back to the legacy path, which reports the failure through
  /// its instrumented SolveReport::failure exit).
  /// @throws std::invalid_argument when the plan's ghost closure does not
  /// cover the matrix pattern or the machine is not a vector machine.
  ShardedCg(ShardPlan plan, const CsrMatrix& a,
            const sim::MachineConfig& machine, int strip, int phase,
            int num_phases = sim::kDefaultNumPhases);

  /// One distributed solve; @p coord is the caller's (serial) Vpu whose
  /// current phase scope prices the reduction folds.
  SolveReport solve(sim::Vpu& coord, std::span<const double> b,
                    std::span<double> x, const SolveOptions& opts);

  int shards() const { return plan_.shards; }
  const ShardPlan& plan() const { return plan_; }
  const sim::HaloExchange& halo() const { return *halo_; }
  sim::Vpu& shard_vpu(int p) { return *shards_[static_cast<std::size_t>(p)].vpu; }
  const sim::Vpu& shard_vpu(int p) const {
    return *shards_[static_cast<std::size_t>(p)].vpu;
  }

  /// Accumulated BSP makespan: Σ over parallel epochs of the slowest
  /// shard's cycle delta, plus every coordinator cycle spent in solve().
  double makespan_cycles() const { return makespan_; }

  /// Reset shard Vpus, the makespan and the epoch clock (call at the start
  /// of a measured run, alongside the coordinator's Vpu::reset()).
  void reset();

 private:
  struct Space;  ///< cg_recurrence's sharded execution space (sharding.cpp)

  struct Shard {
    std::unique_ptr<sim::Vpu> vpu;
    /// Restricted operator: the owned rows, local column ids (owned
    /// prefix, then ghosts).
    EllMatrix a;
    std::vector<double> dinv;   ///< owned slice of the Jacobi inverse diagonal
    std::vector<double> x, p;   ///< local_size: owned + ghost slots
    std::vector<double> b, r, z, ap;  ///< owned only
    std::vector<double> partials;     ///< raw per-strip reduction partials
  };

  ShardPlan plan_;
  int strip_ = 1;  ///< effective strip (== plan quantum)
  int phase_ = 0;
  std::vector<Shard> shards_;
  std::unique_ptr<sim::HaloExchange> halo_;
  // Scratch pointer tables for HaloExchange calls, sized once in the
  // constructor so exchanges never allocate mid-measurement.
  std::vector<sim::Vpu*> vpu_ptrs_;
  std::vector<double*> local_ptrs_;
  std::vector<double> epoch_last_;  ///< per-shard cycle snapshot
  double makespan_ = 0.0;
};

}  // namespace vecfd::solver
