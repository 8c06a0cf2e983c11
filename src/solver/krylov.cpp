#include "solver/krylov.h"

#include <cmath>
#include <stdexcept>
#include <string>

#include "solver/cg_recurrence.h"

namespace vecfd::solver {

namespace {
/// Plain double arithmetic in the role of a Vpu's scalar unit, so the host
/// solvers run the shared recurrences of solver/cg_recurrence.h.
struct HostScalar {
  double sdiv(double a, double b) const { return a / b; }
  double smul(double a, double b) const { return a * b; }
  double ssqrt(double v) const { return std::sqrt(v); }
};
}  // namespace

SolveReport& checked(SolveReport& rep) {
  const bool len_ok =
      rep.history.size() == static_cast<std::size_t>(rep.iterations) + 1;
  // NaN residuals (a diverged solve) must compare equal to themselves here.
  const bool back_ok =
      !rep.history.empty() &&
      (rep.history.back() == rep.residual ||
       (std::isnan(rep.history.back()) && std::isnan(rep.residual)));
  if (!len_ok || !back_ok) {
    throw std::logic_error(
        "SolveReport contract violated at solver exit: history.size()=" +
        std::to_string(rep.history.size()) +
        ", iterations=" + std::to_string(rep.iterations) +
        " (want size == iterations + 1 and history.back() == residual; "
        "see krylov.h)");
  }
  return rep;
}

std::vector<SolveReport>& checked(std::vector<SolveReport>& reps) {
  for (SolveReport& rep : reps) checked(rep);
  return reps;
}

void require_jacobi_rung(const SolveOptions& opts, const char* who) {
  if (opts.jacobi_precondition &&
      opts.precond.kind != PrecondKind::kJacobi) {
    throw std::invalid_argument(
        std::string(who) + ": preconditioner '" +
        to_string(opts.precond.kind) +
        "' is only available on the SPD vcg path (use vcg, or kJacobi)");
  }
}

bool precond_from_string(std::string_view name, PrecondKind& out) {
  if (name == "jacobi") {
    out = PrecondKind::kJacobi;
  } else if (name == "cheby") {
    out = PrecondKind::kCheby;
  } else if (name == "deflate") {
    out = PrecondKind::kDeflate;
  } else {
    return false;
  }
  return true;
}

double dot(std::span<const double> a, std::span<const double> b) {
  if (a.size() != b.size()) {
    throw std::invalid_argument("dot: dimension mismatch");
  }
  double s = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) s += a[i] * b[i];
  return s;
}

double norm2(std::span<const double> a) {
  const auto abs_max = [&](auto&& max_into) {
    for (const double v : a) max_into(std::fabs(v));
  };
  const auto scaled_sum_sq = [&](double m) {
    double ssq = 0.0;
    for (const double v : a) {
      const double q = v / m;
      ssq += q * q;
    }
    return ssq;
  };
  return norm2_rescan(
      HostScalar{}, [&] { return dot(a, a); }, abs_max, scaled_sum_sq);
}

void axpy(double alpha, std::span<const double> x, std::span<double> y) {
  if (x.size() != y.size()) {
    throw std::invalid_argument("axpy: dimension mismatch");
  }
  for (std::size_t i = 0; i < x.size(); ++i) y[i] += alpha * x[i];
}

std::vector<double> jacobi_inverse_diagonal(const CsrMatrix& a) {
  std::vector<double> inv;
  jacobi_inverse_diagonal_into(a, inv);
  return inv;
}

void jacobi_inverse_diagonal_into(const CsrMatrix& a,
                                  std::vector<double>& out) {
  const int n = a.rows();
  out.assign(static_cast<std::size_t>(n), 0.0);
  for (int r = 0; r < n; ++r) {
    const double d = a.at(r, r);
    if (d == 0.0) {
      throw std::runtime_error("jacobi preconditioner: zero diagonal at row " +
                               std::to_string(r));
    }
    out[static_cast<std::size_t>(r)] = 1.0 / d;
  }
}

namespace {
void apply_precond(const std::vector<double>& dinv,
                   std::span<const double> r, std::span<double> z) {
  if (dinv.empty()) {
    std::copy(r.begin(), r.end(), z.begin());
  } else {
    for (std::size_t i = 0; i < r.size(); ++i) z[i] = dinv[i] * r[i];
  }
}

/// Breakdown exit (record_breakdown) with the host residual of @p r.
SolveReport& breakdown_exit(SolveReport& rep, int it,
                            std::span<const double> r, double bnorm,
                            double rel_tolerance) {
  return checked(record_breakdown(rep, it, norm2(r) / bnorm, rel_tolerance));
}

/// Failure exit (record_failure): the preconditioner could not be built,
/// so the solve never ran.
SolveReport& failure_exit(SolveReport& rep, const char* why,
                          const CsrMatrix& a, std::span<const double> b,
                          std::span<const double> x, double bnorm,
                          double rel_tolerance) {
  std::vector<double> r(b.size());
  a.spmv(x, r);
  for (std::size_t i = 0; i < b.size(); ++i) r[i] = b[i] - r[i];
  return checked(record_failure(rep, why, norm2(r) / bnorm, rel_tolerance));
}

/// cg_recurrence's host space: plain loops over its own work vectors.
struct HostSpace {
  const CsrMatrix& a;
  std::span<const double> b;
  std::span<double> x;
  std::vector<double> dinv{}, r{}, z{}, p{}, ap{};

  HostScalar scalar() const { return {}; }
  double norm2_b() const { return norm2(b); }
  double norm2_r() const { return norm2(r); }
  void zero_x() { std::fill(x.begin(), x.end(), 0.0); }

  void prepare() {
    for (std::vector<double>* v : {&r, &z, &p, &ap}) v->assign(b.size(), 0.0);
  }

  void setup_precond(const SolveOptions& opts) {
    if (opts.jacobi_precondition) dinv = jacobi_inverse_diagonal(a);
  }

  void residual() {
    a.spmv(x, r);
    for (std::size_t i = 0; i < r.size(); ++i) r[i] = b[i] - r[i];
  }

  double precond(bool init) {
    apply_precond(dinv, r, z);
    if (init) p = z;
    return dot(r, z);
  }

  double apply_p() {
    a.spmv(p, ap);
    return dot(p, ap);
  }

  void update_xr(double alpha) {
    axpy(alpha, p, x);
    axpy(-alpha, ap, r);
  }

  void update_p(double beta) {
    for (std::size_t i = 0; i < p.size(); ++i) p[i] = z[i] + beta * p[i];
  }

  SolveReport finish(SolveReport& rep) const { return checked(rep); }
};
}  // namespace

SolveReport cg(const CsrMatrix& a, std::span<const double> b,
               std::span<double> x, const SolveOptions& opts) {
  if (static_cast<int>(b.size()) != a.rows() || x.size() != b.size()) {
    throw std::invalid_argument("cg: dimension mismatch");
  }
  require_jacobi_rung(opts, "cg");
  HostSpace sp{a, b, x};
  return cg_recurrence(sp, opts);
}

SolveReport bicgstab(const CsrMatrix& a, std::span<const double> b,
                     std::span<double> x, const SolveOptions& opts) {
  const std::size_t n = b.size();
  if (static_cast<int>(n) != a.rows() || x.size() != n) {
    throw std::invalid_argument("bicgstab: dimension mismatch");
  }
  require_jacobi_rung(opts, "bicgstab");
  SolveReport rep;
  const double bnorm = norm2(b);
  if (bnorm == 0.0) {
    std::fill(x.begin(), x.end(), 0.0);
    rep.converged = true;
    rep.history.push_back(0.0);
    return checked(rep);
  }
  std::vector<double> dinv;
  if (opts.jacobi_precondition) {
    try {
      dinv = jacobi_inverse_diagonal(a);
    } catch (const std::runtime_error& e) {
      return checked(
          failure_exit(rep, e.what(), a, b, x, bnorm, opts.rel_tolerance));
    }
  }

  std::vector<double> r(n), r0(n), p(n, 0.0), v(n, 0.0), s(n), t(n);
  std::vector<double> phat(n), shat(n);
  a.spmv(x, r);
  for (std::size_t i = 0; i < n; ++i) r[i] = b[i] - r[i];
  const double rel0 = norm2(r) / bnorm;
  rep.residual = rel0;
  rep.history.push_back(rel0);
  if (rel0 < opts.rel_tolerance) {
    rep.converged = true;
    return checked(rep);
  }
  r0 = r;
  double rho = 1.0;
  double alpha = 1.0;
  double omega = 1.0;

  for (int it = 0; it < opts.max_iterations; ++it) {
    double rho_new = dot(r0, r);
    bool restart = it == 0;
    if (rho_new == 0.0) {
      // serious breakdown: the shadow residual became orthogonal to r
      // (common when Dirichlet rows decouple); restart with r0 = r.
      r0 = r;
      rho_new = dot(r, r);
      if (rho_new == 0.0) {
        // r is exactly zero: the iterate is an exact solution.
        return checked(breakdown_exit(rep, it, r, bnorm, opts.rel_tolerance));
      }
      restart = true;
    }
    if (restart) {
      p = r;
    } else {
      const double beta = (rho_new / rho) * (alpha / omega);
      for (std::size_t i = 0; i < n; ++i) {
        p[i] = r[i] + beta * (p[i] - omega * v[i]);
      }
    }
    rho = rho_new;
    apply_precond(dinv, p, phat);
    a.spmv(phat, v);
    const double r0v = dot(r0, v);
    if (r0v == 0.0) {
      return checked(breakdown_exit(rep, it, r, bnorm, opts.rel_tolerance));
    }
    alpha = rho / r0v;
    for (std::size_t i = 0; i < n; ++i) s[i] = r[i] - alpha * v[i];
    if (norm2(s) / bnorm < opts.rel_tolerance) {
      axpy(alpha, phat, x);
      rep.iterations = it + 1;
      rep.residual = norm2(s) / bnorm;
      rep.history.push_back(rep.residual);
      rep.converged = true;
      return checked(rep);
    }
    apply_precond(dinv, s, shat);
    a.spmv(shat, t);
    const double tt = dot(t, t);
    if (tt == 0.0) {
      // Apply the valid half-step so x is consistent with the reported
      // residual s = b - A·(x + α·p̂).
      axpy(alpha, phat, x);
      return checked(breakdown_exit(rep, it, s, bnorm, opts.rel_tolerance));
    }
    omega = dot(t, s) / tt;
    for (std::size_t i = 0; i < n; ++i) {
      x[i] += alpha * phat[i] + omega * shat[i];
      r[i] = s[i] - omega * t[i];
    }
    const double rel = norm2(r) / bnorm;
    rep.history.push_back(rel);
    rep.iterations = it + 1;
    rep.residual = rel;
    if (rel < opts.rel_tolerance) {
      rep.converged = true;
      return checked(rep);
    }
    // ω = 0 is a breakdown, but x, residual and history were just updated
    // above, so the exit already satisfies the reporting contract.
    if (omega == 0.0) break;
  }
  return checked(rep);
}

std::vector<SolveReport> bicgstab_multi(const CsrMatrix& a,
                                        std::span<const double> b,
                                        std::span<double> x, int k,
                                        const SolveOptions& opts) {
  if (k <= 0) {
    throw std::invalid_argument("bicgstab_multi: k must be positive");
  }
  const std::size_t n = static_cast<std::size_t>(a.rows());
  if (b.size() != n * static_cast<std::size_t>(k) || x.size() != b.size()) {
    throw std::invalid_argument("bicgstab_multi: dimension mismatch");
  }
  require_jacobi_rung(opts, "bicgstab_multi");
  auto ccol = [n](std::span<const double> blk, int d) {
    return blk.subspan(static_cast<std::size_t>(d) * n, n);
  };
  auto mcol = [n](std::span<double> blk, int d) {
    return blk.subspan(static_cast<std::size_t>(d) * n, n);
  };

  std::vector<SolveReport> reps(static_cast<std::size_t>(k));
  std::vector<char> active(static_cast<std::size_t>(k), 0);
  std::vector<double> bnorm(static_cast<std::size_t>(k), 0.0);
  std::vector<double> rho(static_cast<std::size_t>(k), 1.0);
  std::vector<double> alpha(static_cast<std::size_t>(k), 1.0);
  std::vector<double> omega(static_cast<std::size_t>(k), 1.0);
  int remaining = 0;

  std::vector<double> dinv;
  if (opts.jacobi_precondition) {
    try {
      dinv = jacobi_inverse_diagonal(a);
    } catch (const std::runtime_error& e) {
      // every non-trivial column fails identically; zero-RHS columns keep
      // their ordinary exit (they never needed the preconditioner)
      for (int d = 0; d < k; ++d) {
        SolveReport& rep = reps[static_cast<std::size_t>(d)];
        auto xd = mcol(x, d);
        const double bn = norm2(ccol(b, d));
        if (bn == 0.0) {
          std::fill(xd.begin(), xd.end(), 0.0);
          rep.converged = true;
          rep.history.push_back(0.0);
        } else {
          failure_exit(rep, e.what(), a, ccol(b, d), xd, bn,
                       opts.rel_tolerance);
        }
      }
      return checked(reps);
    }
  }

  const std::size_t cells = n * static_cast<std::size_t>(k);
  std::vector<double> R(cells, 0.0), R0(cells, 0.0), P(cells, 0.0);
  std::vector<double> V(cells, 0.0), S(cells, 0.0), T(cells, 0.0);
  std::vector<double> Phat(cells, 0.0), Shat(cells, 0.0);

  for (int d = 0; d < k; ++d) {
    const std::size_t ud = static_cast<std::size_t>(d);
    SolveReport& rep = reps[ud];
    auto xd = mcol(x, d);
    bnorm[ud] = norm2(ccol(b, d));
    if (bnorm[ud] == 0.0) {
      std::fill(xd.begin(), xd.end(), 0.0);
      rep.converged = true;
      rep.history.push_back(0.0);
      continue;
    }
    auto rd = mcol(R, d);
    a.spmv(xd, rd);
    const auto bd = ccol(b, d);
    for (std::size_t i = 0; i < n; ++i) rd[i] = bd[i] - rd[i];
    const double rel0 = norm2(rd) / bnorm[ud];
    rep.residual = rel0;
    rep.history.push_back(rel0);
    if (rel0 < opts.rel_tolerance) {
      rep.converged = true;
      continue;
    }
    std::copy(rd.begin(), rd.end(), mcol(R0, d).begin());
    active[ud] = 1;
    ++remaining;
  }

  auto retire = [&](int d) {
    active[static_cast<std::size_t>(d)] = 0;
    --remaining;
  };
  auto column_breakdown = [&](int d, int it, std::span<const double> res) {
    breakdown_exit(reps[static_cast<std::size_t>(d)], it, res,
                   bnorm[static_cast<std::size_t>(d)], opts.rel_tolerance);
    retire(d);
  };

  for (int it = 0; it < opts.max_iterations && remaining > 0; ++it) {
    for (int d = 0; d < k; ++d) {
      const std::size_t ud = static_cast<std::size_t>(d);
      if (!active[ud]) continue;
      SolveReport& rep = reps[ud];
      auto xd = mcol(x, d);
      auto rd = mcol(R, d);
      auto r0d = mcol(R0, d);
      auto pd = mcol(P, d);
      auto vd = mcol(V, d);
      auto sd = mcol(S, d);
      auto td = mcol(T, d);
      auto phatd = mcol(Phat, d);
      auto shatd = mcol(Shat, d);

      double rho_new = dot(r0d, rd);
      bool restart = it == 0;
      if (rho_new == 0.0) {
        // serious breakdown: restart with r0 = r (see bicgstab above)
        std::copy(rd.begin(), rd.end(), r0d.begin());
        rho_new = dot(rd, rd);
        if (rho_new == 0.0) {
          column_breakdown(d, it, rd);
          continue;
        }
        restart = true;
      }
      if (restart) {
        std::copy(rd.begin(), rd.end(), pd.begin());
      } else {
        const double beta = (rho_new / rho[ud]) * (alpha[ud] / omega[ud]);
        for (std::size_t i = 0; i < n; ++i) {
          pd[i] = rd[i] + beta * (pd[i] - omega[ud] * vd[i]);
        }
      }
      rho[ud] = rho_new;
      apply_precond(dinv, pd, phatd);
      a.spmv(phatd, vd);
      const double r0v = dot(r0d, vd);
      if (r0v == 0.0) {
        column_breakdown(d, it, rd);
        continue;
      }
      alpha[ud] = rho[ud] / r0v;
      for (std::size_t i = 0; i < n; ++i) sd[i] = rd[i] - alpha[ud] * vd[i];
      if (norm2(sd) / bnorm[ud] < opts.rel_tolerance) {
        axpy(alpha[ud], phatd, xd);
        rep.iterations = it + 1;
        rep.residual = norm2(sd) / bnorm[ud];
        rep.history.push_back(rep.residual);
        rep.converged = true;
        retire(d);
        continue;
      }
      apply_precond(dinv, sd, shatd);
      a.spmv(shatd, td);
      const double tt = dot(td, td);
      if (tt == 0.0) {
        axpy(alpha[ud], phatd, xd);  // valid half-step (see bicgstab above)
        column_breakdown(d, it, sd);
        continue;
      }
      omega[ud] = dot(td, sd) / tt;
      for (std::size_t i = 0; i < n; ++i) {
        xd[i] += alpha[ud] * phatd[i] + omega[ud] * shatd[i];
        rd[i] = sd[i] - omega[ud] * td[i];
      }
      const double rel = norm2(rd) / bnorm[ud];
      rep.history.push_back(rel);
      rep.iterations = it + 1;
      rep.residual = rel;
      if (rel < opts.rel_tolerance) {
        rep.converged = true;
        retire(d);
        continue;
      }
      if (omega[ud] == 0.0) retire(d);  // ω breakdown: already reported
    }
  }
  return checked(reps);
}

}  // namespace vecfd::solver
