// vecfd::core — the co-design Advisor.
//
// §7 of the paper distills the study into lessons for application
// developers, system-software developers and hardware architects.  The
// Advisor encodes those lessons as executable diagnostics: given a
// Measurement it points at the phase limiting performance and says *why*
// (unvectorized loop, short AVL, FSM-unfriendly vector length, cache
// pressure), citing the compiler model's remark for the offending loop.
// tests/test_core_advisor.cpp drives the full iterate-measure-refactor
// cycle with it.
#pragma once

#include <string>
#include <vector>

#include "core/experiment.h"
#include "solver/format.h"

namespace vecfd::core {

enum class FindingKind {
  kNotVectorized,      ///< hot phase with Mv ≈ 0
  kShortVectors,       ///< vectorized but AVL ≪ vlmax (the VEC2 symptom)
  kFsmUnfriendlyVl,    ///< vl not a multiple of lanes·fsm_group (the 240 lesson)
  kFusedLoop,          ///< vectorizable work fused with non-vectorizable (VEC1)
  kOpaqueBound,        ///< loop bound not compile-time constant (VEC2 lesson)
  kCachePressure,      ///< high L1 DCM/ki on a memory-bound phase
  kGatherBound,        ///< solve-phase gathers touch ~1 line/lane or drown
                       ///< in pad lanes — the SELL/RCM lever (DESIGN.md §6)
  kHaloBound,          ///< sharded solve moves more halo lines than 20% of
                       ///< its gathered lines — surface dominates volume;
                       ///< fewer/fatter shards (DESIGN.md §9)
  kHealthy,            ///< nothing actionable
};

struct Finding {
  FindingKind kind = FindingKind::kHealthy;
  int phase = 0;            ///< 0 = whole application
  double severity = 0.0;    ///< cycle share at stake, [0, 1]
  std::string message;      ///< human-readable diagnosis + suggested action
};

/// Analyze a measurement; findings come sorted by severity (largest first).
std::vector<Finding> advise(const Measurement& m);

std::string to_string(FindingKind k);

/// Per-platform sparse-format recommendation for the instrumented solves
/// (the `--format auto` policy of vecfd-run; DESIGN.md §6): a scalar-only
/// machine streams the host CSR (no vector mirror to win with); a
/// long-vector machine (vlmax ≥ 64) wants SELL-C-σ, whose sliced pads and
/// gather-coalescing pay exactly where gathers dominate; a short-SIMD
/// machine keeps the padded ELL mirror — at vlmax ~8 the slice
/// bookkeeping outweighs the pads it removes.
solver::SpmvFormat recommend_format(const sim::MachineConfig& machine);

/// Shard-aware variant: @p local_rows is the operator row count each Vpu
/// actually streams (total rows / shards under domain decomposition,
/// DESIGN.md §9).  SELL-C-σ amortizes its slice bookkeeping over many
/// rows; when a shard's restriction drops below ~4·vlmax rows the slices
/// can no longer fill and the padded ELL mirror wins even on long-vector
/// machines.  recommend_format(machine) is the unsharded special case.
solver::SpmvFormat recommend_format(const sim::MachineConfig& machine,
                                    int local_rows);

}  // namespace vecfd::core
