#include "solver/krylov.h"

#include <cmath>
#include <stdexcept>
#include <string>

#include "solver/bicgstab_recurrence.h"
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

/// bicgstab_recurrence's host space: plain loops, one column at a time.
struct HostBlockSpace {
  const CsrMatrix& a;
  std::span<const double> b;
  std::span<double> x;
  int k;
  std::vector<double> dinv{}, R{}, R0{}, P{}, V{}, S{}, T{}, Phat{}, Shat{};

  HostScalar scalar() const { return {}; }
  double norm2(std::span<const double> v) const { return solver::norm2(v); }
  double dot(std::span<const double> u, std::span<const double> v) const {
    return solver::dot(u, v);
  }
  void zero(std::span<double> v) const { std::fill(v.begin(), v.end(), 0.0); }
  void copy(std::span<const double> src, std::span<double> dst) const {
    std::copy(src.begin(), src.end(), dst.begin());
  }
  void axpy(double alpha, std::span<const double> v,
            std::span<double> y) const {
    solver::axpy(alpha, v, y);
  }
  void residual(std::span<const double> xd, std::span<const double> bd,
                std::span<double> rd) const {
    a.spmv(xd, rd);
    for (std::size_t i = 0; i < rd.size(); ++i) rd[i] = bd[i] - rd[i];
  }

  void prepare() const {}
  void setup_precond(const SolveOptions& opts) {
    if (opts.jacobi_precondition) dinv = jacobi_inverse_diagonal(a);
  }

  /// Column @p d of a k-column block.
  template <class Blk>
  auto col(Blk&& blk, std::size_t d) const {
    const std::size_t n = b.size() / static_cast<std::size_t>(k);
    return std::span(blk).subspan(d * n, n);
  }
  /// fn(d) for every active column d.
  template <class Fn>
  void each(std::span<const char> active, Fn&& fn) const {
    for (std::size_t d = 0; d < active.size(); ++d) {
      if (active[d]) fn(d);
    }
  }

  void residual_block(std::span<const char> active) {
    each(active, [&](std::size_t d) {
      residual(col(x, d), col(b, d), col(R, d));
    });
  }
  void apply_block(std::span<const double> src, std::span<double> dst,
                   std::span<const char> active) const {
    each(active, [&](std::size_t d) { a.spmv(col(src, d), col(dst, d)); });
  }
  void precond_block(std::span<const double> src, std::span<double> dst,
                     std::span<const char> active) const {
    each(active, [&](std::size_t d) {
      apply_precond(dinv, col(src, d), col(dst, d));
    });
  }
  void copy_block(std::span<const double> src, std::span<double> dst,
                  std::span<const char> active) const {
    each(active, [&](std::size_t d) { copy(col(src, d), col(dst, d)); });
  }
  void dot_block(std::span<const double> u, std::span<const double> v,
                 std::span<double> out, std::span<const char> active) const {
    each(active, [&](std::size_t d) { out[d] = dot(col(u, d), col(v, d)); });
  }
  void axpby_block(std::span<const double> base, std::span<const double> scale,
                   std::span<const double> scaled, std::span<double> out,
                   std::span<const char> active) const {
    each(active, [&](std::size_t d) {
      const auto bd = col(base, d);
      const auto sd = col(scaled, d);
      const auto od = col(out, d);
      for (std::size_t i = 0; i < od.size(); ++i) {
        od[i] = bd[i] + scale[d] * sd[i];
      }
    });
  }
  void p_update_block(std::span<const double> beta,
                      std::span<const double> omega,
                      std::span<const char> restart,
                      std::span<const char> active) {
    each(active, [&](std::size_t d) {
      const auto rd = col(R, d);
      const auto vd = col(V, d);
      const auto pd = col(P, d);
      for (std::size_t i = 0; i < pd.size(); ++i) {
        pd[i] = restart[d] ? rd[i]
                           : rd[i] + beta[d] * (pd[i] - omega[d] * vd[i]);
      }
    });
  }
  void update_x(std::span<const double> alpha, std::span<const double> omega,
                std::span<const char> active) {
    each(active, [&](std::size_t d) {
      const auto xd = col(x, d);
      const auto ph = col(Phat, d);
      const auto sh = col(Shat, d);
      for (std::size_t i = 0; i < xd.size(); ++i) {
        xd[i] += alpha[d] * ph[i] + omega[d] * sh[i];
      }
    });
  }
};

/// Validates a k-column host BiCGStab call and runs the recurrence.
std::vector<SolveReport> bicgstab_block(const CsrMatrix& a,
                                        std::span<const double> b,
                                        std::span<double> x, int k,
                                        const SolveOptions& opts,
                                        const char* who) {
  if (k <= 0) {
    throw std::invalid_argument(std::string(who) + ": k must be positive");
  }
  const std::size_t cells =
      static_cast<std::size_t>(a.rows()) * static_cast<std::size_t>(k);
  if (b.size() != cells || x.size() != cells) {
    throw std::invalid_argument(std::string(who) + ": dimension mismatch");
  }
  require_jacobi_rung(opts, who);
  HostBlockSpace sp{a, b, x, k};
  return bicgstab_recurrence(sp, opts);
}
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
  return checked(bicgstab_block(a, b, x, 1, opts, "bicgstab").front());
}

std::vector<SolveReport> bicgstab_multi(const CsrMatrix& a,
                                        std::span<const double> b,
                                        std::span<double> x, int k,
                                        const SolveOptions& opts) {
  return bicgstab_block(a, b, x, k, opts, "bicgstab_multi");
}

}  // namespace vecfd::solver
