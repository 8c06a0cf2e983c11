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
  if (opts.precond.kind != PrecondKind::kJacobi &&
      opts.precond.kind != PrecondKind::kNone) {
    throw std::invalid_argument(
        std::string(who) + ": preconditioner '" +
        to_string(opts.precond.kind) +
        "' is only available on the SPD vcg path (use vcg, kJacobi or "
        "kNone)");
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
    if (opts.precond.kind != PrecondKind::kNone) {
      dinv = jacobi_inverse_diagonal(a);
    }
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

}  // namespace vecfd::solver
