#include "support/host_bicgstab.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "solver/bicgstab_recurrence.h"

namespace vecfd::solver {

namespace {
/// Plain double arithmetic in the role of a Vpu's scalar unit.
struct HostScalar {
  double sdiv(double a, double b) const { return a / b; }
  double smul(double a, double b) const { return a * b; }
  double ssqrt(double v) const { return std::sqrt(v); }
};

/// z = D⁻¹ r, or z = r for an empty diagonal (kNone).
void apply_precond(const std::vector<double>& dinv,
                   std::span<const double> r, std::span<double> z) {
  if (dinv.empty()) {
    std::copy(r.begin(), r.end(), z.begin());
  } else {
    for (std::size_t i = 0; i < r.size(); ++i) z[i] = dinv[i] * r[i];
  }
}

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
    if (opts.precond.kind != PrecondKind::kNone) {
      dinv = jacobi_inverse_diagonal(a);
    }
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
