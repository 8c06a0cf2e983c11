// vecfd::solver — the ONE BiCGStab recurrence, written against a blocked
// execution space.
//
// solver::vbicgstab_multi runs it on a single instrumented Vpu, and the
// host test oracle (tests/support/host_bicgstab.h) with plain loops; the
// single-RHS vbicgstab is its k = 1 block.  k node-major columns (column d spans [d·n, (d+1)·n)) advance
// in lockstep, each with its own Krylov scalars and its own convergence /
// breakdown lifecycle, so column d of a block returns bit-for-bit the
// iterate of a k = 1 solve on b_d.  The recurrence decides WHAT is computed
// and in which order — every exit of the krylov.h contract (zero RHS,
// preconditioner-setup failure, rel0 < tol, failed ρ restart, r₀·v = 0,
// ‖s‖ converged, t·t = 0, converged, ω = 0, iteration budget) — while the
// space decides where each operation runs and how it is priced.
//
// A space holds the system (`a`, `b`, `x`: `k` columns) and the work
// blocks `R, R0, P, V, S, T, Phat, Shat` (std::vector<double>, sized to
// k·n here), and provides:
//
//   scalar()                     the scalar unit (sdiv/smul)
//   -- one column --
//   double norm2(v)              ‖v‖₂ (the overflow-safe norm of krylov.h)
//   double dot(a, b)
//   void zero(x)                 x = 0 (the zero-RHS exit)
//   void copy(src, dst)
//   void axpy(alpha, v, y)       y += α·v
//   void residual(x, b, r)       r = b − A·x (the failure exit)
//   -- setup --
//   void prepare()               mirror the operator (host-side)
//   void setup_precond(opts)     build M⁻¹; may throw std::runtime_error
//   -- k columns; inactive columns are neither read nor written --
//   void residual_block(active)  R = B − A·X
//   void apply_block(src, dst, active)      dst = A·src
//   void precond_block(src, dst, active)    dst = M⁻¹·src
//   void copy_block(src, dst, active)
//   void dot_block(a, b, out, active)       out[d] = a_d·b_d
//   void axpby_block(base, scale, scaled, out, active)
//                                out_d = base_d + scale[d]·scaled_d
//   void p_update_block(beta, omega, restart, active)
//                                P_d = R_d when restart[d], else
//                                R_d + β_d·(P_d − ω_d·V_d)
//   void update_x(alpha, omega, active)     X_d += α_d·P̂_d + ω_d·Ŝ_d
#pragma once

#include <cstddef>
#include <span>
#include <stdexcept>
#include <vector>

#include "solver/cg_recurrence.h"
#include "solver/krylov.h"

namespace vecfd::solver {

/// Jacobi-preconditioned BiCGStab on the k columns of @p sp (see the
/// header comment for the contract); one SolveReport per column.
template <class Space>
std::vector<SolveReport> bicgstab_recurrence(Space& sp,
                                             const SolveOptions& opts) {
  auto&& s = sp.scalar();
  const int k = sp.k;
  const std::size_t uk = static_cast<std::size_t>(k);
  const std::size_t cells = sp.b.size();
  const std::size_t n = cells / uk;
  const auto col = [n](auto&& blk, int d) {
    return std::span(blk).subspan(static_cast<std::size_t>(d) * n, n);
  };

  std::vector<SolveReport> reps(uk);
  std::vector<char> active(uk, 0);
  std::vector<char> restart(uk, 0);
  std::vector<double> bnorm(uk, 0.0), rho(uk, 1.0), alpha(uk, 1.0);
  std::vector<double> omega(uk, 1.0), scal(uk, 0.0), ts(uk, 0.0);
  std::vector<double> beta(uk, 0.0), negscale(uk, 0.0);
  int remaining = 0;

  for (int d = 0; d < k; ++d) {
    const std::size_t ud = static_cast<std::size_t>(d);
    bnorm[ud] = sp.norm2(col(sp.b, d));
    if (bnorm[ud] == 0.0) {
      sp.zero(col(sp.x, d));
      reps[ud].converged = true;
      reps[ud].history.push_back(0.0);
    } else {
      active[ud] = 1;
      ++remaining;
    }
  }
  if (remaining == 0) return checked(reps);

  sp.prepare();
  try {
    sp.setup_precond(opts);
  } catch (const std::runtime_error& e) {
    // Per-column failure exits pricing the true residual of the untouched
    // iterate; zero-RHS columns already took their ordinary exit above.
    sp.R.assign(cells, 0.0);
    for (int d = 0; d < k; ++d) {
      const std::size_t ud = static_cast<std::size_t>(d);
      if (!active[ud]) continue;
      sp.residual(col(sp.x, d), col(sp.b, d), col(sp.R, d));
      record_failure(reps[ud], e.what(),
                     s.sdiv(sp.norm2(col(sp.R, d)), bnorm[ud]),
                     opts.rel_tolerance);
    }
    return checked(reps);
  }
  for (std::vector<double>* blk : {&sp.R, &sp.R0, &sp.P, &sp.V, &sp.S, &sp.T,
                                   &sp.Phat, &sp.Shat}) {
    blk->assign(cells, 0.0);
  }

  const auto retire = [&](int d) {
    active[static_cast<std::size_t>(d)] = 0;
    --remaining;
  };

  sp.residual_block(active);
  for (int d = 0; d < k; ++d) {
    const std::size_t ud = static_cast<std::size_t>(d);
    if (!active[ud]) continue;
    const double rel0 = s.sdiv(sp.norm2(col(sp.R, d)), bnorm[ud]);
    reps[ud].residual = rel0;
    reps[ud].history.push_back(rel0);
    if (rel0 < opts.rel_tolerance) {
      reps[ud].converged = true;
      retire(d);
    }
  }
  if (remaining > 0) sp.copy_block(sp.R, sp.R0, active);

  // Breakdown exit (record_breakdown) with the true residual of @p res.
  const auto column_breakdown = [&](int d, int it,
                                    std::span<const double> res) {
    const std::size_t ud = static_cast<std::size_t>(d);
    record_breakdown(reps[ud], it, s.sdiv(sp.norm2(res), bnorm[ud]),
                     opts.rel_tolerance);
    retire(d);
  };

  for (int it = 0; it < opts.max_iterations && remaining > 0; ++it) {
    sp.dot_block(sp.R0, sp.R, scal, active);  // per-column ρ
    for (int d = 0; d < k; ++d) {
      const std::size_t ud = static_cast<std::size_t>(d);
      if (!active[ud]) continue;
      restart[ud] = it == 0 ? 1 : 0;
      if (scal[ud] == 0.0) {
        // Serious breakdown: the shadow residual became orthogonal to r
        // (common when Dirichlet rows decouple); restart with r0 = r.
        sp.copy(col(sp.R, d), col(sp.R0, d));
        scal[ud] = sp.dot(col(sp.R, d), col(sp.R, d));
        if (scal[ud] == 0.0) {
          // r is exactly zero: the iterate is an exact solution.
          column_breakdown(d, it, col(sp.R, d));
          continue;
        }
        restart[ud] = 1;
      }
      if (!restart[ud]) {
        beta[ud] =
            s.smul(s.sdiv(scal[ud], rho[ud]), s.sdiv(alpha[ud], omega[ud]));
      }
      rho[ud] = scal[ud];
    }
    if (remaining == 0) break;
    sp.p_update_block(beta, omega, restart, active);
    sp.precond_block(sp.P, sp.Phat, active);
    sp.apply_block(sp.Phat, sp.V, active);
    sp.dot_block(sp.R0, sp.V, scal, active);  // per-column r₀·v
    for (int d = 0; d < k; ++d) {
      const std::size_t ud = static_cast<std::size_t>(d);
      if (!active[ud]) continue;
      if (scal[ud] == 0.0) {
        column_breakdown(d, it, col(sp.R, d));
        continue;
      }
      alpha[ud] = s.sdiv(rho[ud], scal[ud]);
      negscale[ud] = -alpha[ud];
    }
    if (remaining == 0) break;
    sp.axpby_block(sp.R, negscale, sp.V, sp.S, active);  // s = r − αv
    for (int d = 0; d < k; ++d) {
      const std::size_t ud = static_cast<std::size_t>(d);
      if (!active[ud]) continue;
      const double srel = s.sdiv(sp.norm2(col(sp.S, d)), bnorm[ud]);
      if (srel < opts.rel_tolerance) {
        sp.axpy(alpha[ud], col(sp.Phat, d), col(sp.x, d));
        reps[ud].iterations = it + 1;
        reps[ud].residual = srel;
        reps[ud].history.push_back(srel);
        reps[ud].converged = true;
        retire(d);
      }
    }
    if (remaining == 0) break;
    sp.precond_block(sp.S, sp.Shat, active);
    sp.apply_block(sp.Shat, sp.T, active);
    sp.dot_block(sp.T, sp.T, scal, active);  // per-column t·t
    for (int d = 0; d < k; ++d) {
      const std::size_t ud = static_cast<std::size_t>(d);
      if (!active[ud]) continue;
      if (scal[ud] == 0.0) {
        // Apply the valid half-step so x is consistent with the reported
        // residual s = b − A·(x + α·p̂).
        sp.axpy(alpha[ud], col(sp.Phat, d), col(sp.x, d));
        column_breakdown(d, it, col(sp.S, d));
      }
    }
    if (remaining == 0) break;
    sp.dot_block(sp.T, sp.S, ts, active);
    for (int d = 0; d < k; ++d) {
      const std::size_t ud = static_cast<std::size_t>(d);
      if (!active[ud]) continue;
      omega[ud] = s.sdiv(ts[ud], scal[ud]);
      negscale[ud] = -omega[ud];
    }
    sp.update_x(alpha, omega, active);
    sp.axpby_block(sp.S, negscale, sp.T, sp.R, active);  // r = s − ωt
    for (int d = 0; d < k; ++d) {
      const std::size_t ud = static_cast<std::size_t>(d);
      if (!active[ud]) continue;
      const double rel = s.sdiv(sp.norm2(col(sp.R, d)), bnorm[ud]);
      reps[ud].history.push_back(rel);
      reps[ud].iterations = it + 1;
      reps[ud].residual = rel;
      if (rel < opts.rel_tolerance) {
        reps[ud].converged = true;
        retire(d);
        continue;
      }
      // ω = 0 is a breakdown, but x, residual and history were just
      // updated above, so the exit already satisfies the contract.
      if (omega[ud] == 0.0) retire(d);
    }
  }
  return checked(reps);
}

}  // namespace vecfd::solver
