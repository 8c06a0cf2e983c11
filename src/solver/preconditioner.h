// vecfd::solver — the phase-10 preconditioner ladder (DESIGN.md §8).
//
// Four rungs for the SPD pressure-Poisson vcg, weakest to strongest:
//
//   kNone     z = r — un-preconditioned CG.  Like kJacobi, setup issues
//             no Vpu instructions (the apply is the empty-diagonal copy).
//   kJacobi   z = D⁻¹ r — the historic behaviour.  Setup issues NO Vpu
//             instructions and touches no Vpu memory, so selecting this
//             rung reproduces the pre-ladder vcg instruction stream bit
//             for bit.
//   kCheby    z = p_k(D⁻¹A) D⁻¹ r — a degree-k Chebyshev polynomial in
//             the Jacobi-scaled operator, targeting [λmax·boost/ratio,
//             λmax·boost].  λmax of D⁻¹A is estimated by a few power
//             iterations run THROUGH the instrumented vspmv path during
//             setup, inside the caller's phase scope, so the estimation
//             cost lands in the phase-10 counters like everything else.
//             p_k > 0 on the whole spectrum (the boost keeps the interval
//             covering it), hence M⁻¹ = p_k(D⁻¹A)D⁻¹ is SPD and plain CG
//             remains valid.
//   kDeflate  z = Q r + (I − QA) D⁻¹ (I − AQ) r with Q = P A_c⁻¹ Pᵀ — a
//             balancing two-level coarse correction over structured-mesh
//             aggregates (PrecondOptions::aggregates;
//             fem::structured_aggregates composed with the active solve
//             ordering).  Pᵀ is a ragged gather-sum walked in padded
//             slabs exactly like the ELL vspmv (pads are masked −1
//             columns: +0.0, zero traffic); P is the width-1 gather
//             z[i] += α·zc[agg[i]].  A_c = PᵀAP is Galerkin-assembled on
//             the host and solved by the HOST cg to a tight tolerance —
//             the coarse solve is deliberately host-side/uncounted (it is
//             the part a real co-designed machine would NOT put on the
//             long vector unit), while the transfer kernels and the two
//             fine SpMVs per apply are instrumented.  Q symmetric PSD and
//             (I − QA) = (I − AQ)ᵀ keep M⁻¹ SPD (see apply_deflate).
//
// Every rung computes identical values on the vector and scalar paths, and
// across SpMV formats (csr/ell/sell × rcm): the power iterations go through
// OperatorMirror::apply, whose product is bit-identical across formats, and
// the transfer kernels are format-independent — so residual HISTORIES of a
// preconditioned solve stay bit-identical across formats on every exit
// path, exactly as test_format_equivalence demands of the Jacobi rung.
//
// Setup runs host-side work first (slab/aggregate construction, Galerkin
// assembly, inverse diagonal) and only then issues instructions; all
// Vpu-touched scratch lives in the Preconditioner and is re-assigned (never
// reallocated at a stable system size) per setup, satisfying the
// measured-alloc determinism rule.  A zero diagonal throws
// std::runtime_error out of setup(); the solvers convert it into the
// SolveReport::failure exit (krylov.h).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "sim/vpu.h"
#include "solver/csr.h"
#include "solver/krylov.h"
#include "solver/vkernels.h"

namespace vecfd::solver {

class Preconditioner {
 public:
  /// Build the rung selected by @p opts (precond.kind; kNone is the
  /// identity, i.e. un-preconditioned CG) for operator @p a mirrored as
  /// @p op.  Host-side construction happens
  /// before any instruction is issued; kCheby then runs its instrumented
  /// power iterations.  @p op must stay alive and assigned to @p a for the
  /// lifetime of subsequent apply() calls.
  /// @throws std::runtime_error on a zero diagonal (every rung but kNone
  ///         uses D⁻¹).
  /// @throws std::invalid_argument on malformed deflation aggregates.
  void setup(sim::Vpu& vpu, const CsrMatrix& a, const OperatorMirror& op,
             const SolveOptions& opts, int strip);

  /// z = M⁻¹ r for the rung built by the last setup().
  void apply(sim::Vpu& vpu, std::span<const double> r, std::span<double> z,
             int strip);

  PrecondKind kind() const { return kind_; }

 private:
  void setup_host(const CsrMatrix& a, const SolveOptions& opts);
  void setup_cheby_bounds(sim::Vpu& vpu, int strip);
  void apply_cheby(sim::Vpu& vpu, std::span<const double> r,
                   std::span<double> z, int strip);
  void apply_deflate(sim::Vpu& vpu, std::span<const double> r,
                     std::span<double> z, int strip);

  PrecondKind kind_ = PrecondKind::kJacobi;
  const OperatorMirror* op_ = nullptr;
  int n_ = 0;
  std::vector<double> dinv_;

  // Chebyshev state: knobs captured at setup, target interval
  // midpoint/half-width, and scratch.
  int degree_ = 0;
  int power_its_ = 8;
  double boost_ = 1.1;
  double ratio_ = 30.0;
  double theta_ = 1.0;
  double delta_ = 0.5;
  std::vector<double> pw_v_, pw_w_;   // power-iteration vectors
  std::vector<double> chb_pr_, chb_d_, chb_az_;

  // Deflation state: aggregate transfer slabs + host coarse problem.
  int coarse_rows_ = 0;
  int pt_width_ = 0;
  std::vector<std::int32_t> agg_ids_;  // fine i -> aggregate id (gather P)
  std::vector<std::int32_t> pt_cols_;  // [width][coarse_rows] slabs (Pᵀ)
  CsrMatrix coarse_;                   // A_c = PᵀAP (host)
  SolveOptions coarse_opts_;
  std::vector<double> rc_, zc_;        // coarse residual / correction
  std::vector<double> df_t_, df_y_;    // fine-level balancing scratch
};

}  // namespace vecfd::solver
