// vecfd::solver — the ONE CG recurrence and the ONE norm2 trust-bound/
// rescan, written against an execution space.
//
// solver::cg runs them on the host, solver::vcg on a single instrumented
// Vpu and solver::ShardedCg on P shard Vpus plus a coordinator (DESIGN.md
// §9).  The recurrence decides
// WHAT is computed and in which order — every exit of the krylov.h
// contract (zero RHS, rel0 < tol, injected failure, preconditioner-setup
// failure, p·Ap == 0 breakdown, converged, iteration budget) — while the
// space decides WHERE each vector operation runs and how it is priced.
// A space provides:
//
//   scalar()                     the scalar unit (sdiv/smul/ssqrt): the
//                                issuing Vpu, or host arithmetic
//   double norm2_b(), norm2_r()  ‖b‖₂, ‖r‖₂ (through norm2_rescan)
//   void zero_x()                x = 0 (the zero-RHS exit)
//   void prepare()               size the work vectors (host-side)
//   void setup_precond(opts)     build M⁻¹; may throw std::runtime_error
//   void residual()              r = b − A·x
//   double precond(bool init)    z = M⁻¹r (and p = z when @p init); r·z
//   double apply_p()             Ap = A·p, returning p·Ap
//   void update_xr(alpha)        x += α·p, r −= α·Ap
//   void update_p(beta)          p = z + β·p
//   SolveReport finish(rep)      hand x back to the caller; checked(rep)
#pragma once

#include <cmath>
#include <stdexcept>

#include "solver/krylov.h"

namespace vecfd::solver {

/// Overflow/underflow-safe ‖a‖₂ over three reductions of a: @p sum_sq()
/// = Σaᵢ², @p abs_max(max_into) feeding |aᵢ| (or per-strip maxima) to
/// max_into, and @p scaled_sum_sq(m) = Σ(aᵢ/m)².  The common path is
/// sqrt(sum_sq()); only a squared sum outside the kNormSumSqMin/Max trust
/// bounds pays the ‖a‖∞ rescan and the scaled m·sqrt(Σ(aᵢ/m)²).  @p s is
/// the scalar unit issuing sqrt/mul.
template <class Scalar, class SumSq, class AbsMax, class ScaledSumSq>
double norm2_rescan(Scalar&& s, SumSq&& sum_sq, AbsMax&& abs_max,
                    ScaledSumSq&& scaled_sum_sq) {
  const double ss = sum_sq();
  if (ss > kNormSumSqMin && ss < kNormSumSqMax) {
    return s.ssqrt(ss);  // common path: the one-pass sum is trustworthy
  }
  double m = 0.0;
  abs_max([&](double v) {
    if (v > m || std::isnan(v)) m = v;  // NaN-propagating running max
  });
  if (m == 0.0) return 0.0;
  if (std::isinf(m)) return m;  // an inf entry: the norm IS inf, not NaN
  const double ssq = scaled_sum_sq(m);
  return s.smul(m, s.ssqrt(ssq));
}

/// Breakdown exit of the krylov.h contract: the aborted iteration @p it is
/// counted and the true relative residual @p rel appended (never the
/// misleading `residual == 0, converged == false` pair).
inline SolveReport& record_breakdown(SolveReport& rep, int it, double rel,
                                     double rel_tolerance) {
  rep.iterations = it + 1;
  rep.residual = rel;
  rep.history.push_back(rel);
  if (rel < rel_tolerance) rep.converged = true;
  return rep;
}

/// SolveReport::failure exit: the solve never ran, x is untouched and
/// @p rel0 is the true relative residual of that iterate.
inline SolveReport& record_failure(SolveReport& rep, const char* why,
                                   double rel0, double rel_tolerance) {
  rep.failure = why;
  rep.iterations = 0;
  rep.residual = rel0;
  rep.history.assign(1, rel0);
  rep.converged = rel0 < rel_tolerance;
  return rep;
}

/// Preconditioned CG on @p sp (see the header comment for the contract).
template <class Space>
SolveReport cg_recurrence(Space& sp, const SolveOptions& opts) {
  auto&& s = sp.scalar();
  SolveReport rep;
  const double bnorm = sp.norm2_b();
  if (bnorm == 0.0) {
    sp.zero_x();
    rep.converged = true;
    rep.history.push_back(0.0);
    return sp.finish(rep);
  }
  sp.prepare();
  // Failure exits price the true residual of the untouched iterate, so
  // they stay instrumented exactly like a genuine breakdown.
  const auto fail = [&](const char* why) {
    sp.residual();
    return sp.finish(
        record_failure(rep, why, s.sdiv(sp.norm2_r(), bnorm),
                       opts.rel_tolerance));
  };
  // Fault-plan hook (sim/fault_injection.h).
  if (opts.inject_breakdown) {
    return fail("injected solver breakdown (fault plan)");
  }
  try {
    sp.setup_precond(opts);
  } catch (const std::runtime_error& e) {
    return fail(e.what());
  }
  sp.residual();
  const double rel0 = s.sdiv(sp.norm2_r(), bnorm);
  rep.residual = rel0;
  rep.history.push_back(rel0);
  if (rel0 < opts.rel_tolerance) {
    rep.converged = true;
    return sp.finish(rep);
  }
  double rz = sp.precond(/*init=*/true);

  for (int it = 0; it < opts.max_iterations; ++it) {
    const double pap = sp.apply_p();
    if (pap == 0.0) {
      return sp.finish(
          record_breakdown(rep, it, s.sdiv(sp.norm2_r(), bnorm),
                           opts.rel_tolerance));
    }
    const double alpha = s.sdiv(rz, pap);
    sp.update_xr(alpha);
    const double rel = s.sdiv(sp.norm2_r(), bnorm);
    rep.history.push_back(rel);
    rep.iterations = it + 1;
    rep.residual = rel;
    if (rel < opts.rel_tolerance) {
      rep.converged = true;
      return sp.finish(rep);
    }
    const double rz_new = sp.precond(/*init=*/false);
    const double beta = s.sdiv(rz_new, rz);
    rz = rz_new;
    sp.update_p(beta);
  }
  return sp.finish(rep);
}

}  // namespace vecfd::solver
