#include "stats/ols.h"

#include <cmath>
#include <stdexcept>

namespace vecfd::stats {

namespace {

/// Solve the dense symmetric system A·x = b in place (Gaussian elimination
/// with partial pivoting; A is (k+1)² — tiny).
std::vector<double> solve_dense(std::vector<std::vector<double>> a,
                                std::vector<double> b) {
  const std::size_t n = b.size();
  for (std::size_t col = 0; col < n; ++col) {
    std::size_t pivot = col;
    for (std::size_t r = col + 1; r < n; ++r) {
      if (std::fabs(a[r][col]) > std::fabs(a[pivot][col])) pivot = r;
    }
    if (std::fabs(a[pivot][col]) < 1e-12) {
      throw std::runtime_error("ols_fit: singular normal equations "
                               "(collinear regressors?)");
    }
    std::swap(a[col], a[pivot]);
    std::swap(b[col], b[pivot]);
    for (std::size_t r = col + 1; r < n; ++r) {
      const double f = a[r][col] / a[col][col];
      for (std::size_t c = col; c < n; ++c) a[r][c] -= f * a[col][c];
      b[r] -= f * b[col];
    }
  }
  std::vector<double> x(n, 0.0);
  for (std::size_t ri = n; ri-- > 0;) {
    double s = b[ri];
    for (std::size_t c = ri + 1; c < n; ++c) s -= a[ri][c] * x[c];
    x[ri] = s / a[ri][ri];
  }
  return x;
}

}  // namespace

double OlsResult::predict(std::span<const double> x) const {
  if (x.size() + 1 != beta.size()) {
    throw std::invalid_argument("OlsResult::predict: wrong regressor count");
  }
  double yhat = beta[0];
  for (std::size_t j = 0; j < x.size(); ++j) yhat += beta[j + 1] * x[j];
  return yhat;
}

OlsResult ols_fit(const std::vector<std::vector<double>>& xs,
                  std::span<const double> y) {
  const std::size_t n = y.size();
  const std::size_t k = xs.size();
  if (n == 0) throw std::invalid_argument("ols_fit: empty sample");
  for (const auto& col : xs) {
    if (col.size() != n) {
      throw std::invalid_argument("ols_fit: regressor length != n");
    }
  }
  if (n <= k) {
    throw std::invalid_argument("ols_fit: need more observations than "
                                "regressors");
  }

  // Normal equations on the design matrix [1 | X]: (XᵀX) β = Xᵀy.
  const std::size_t m = k + 1;
  std::vector<std::vector<double>> xtx(m, std::vector<double>(m, 0.0));
  std::vector<double> xty(m, 0.0);
  auto design = [&](std::size_t row, std::size_t col) -> double {
    return col == 0 ? 1.0 : xs[col - 1][row];
  };
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t i = 0; i < m; ++i) {
      const double di = design(r, i);
      xty[i] += di * y[r];
      for (std::size_t j = 0; j < m; ++j) xtx[i][j] += di * design(r, j);
    }
  }

  OlsResult res;
  res.beta = solve_dense(std::move(xtx), std::move(xty));
  res.n = n;
  res.k = k;

  const double ybar = mean(y);
  for (std::size_t r = 0; r < n; ++r) {
    std::vector<double> xrow(k);
    for (std::size_t j = 0; j < k; ++j) xrow[j] = xs[j][r];
    const double e = y[r] - res.predict(xrow);
    res.ss_res += e * e;
    const double d = y[r] - ybar;
    res.ss_tot += d * d;
  }
  // Degenerate constant-y sample (ss_tot == 0): R² = 1 only if the fit is
  // actually perfect; a nonzero residual on a constant target is the worst
  // possible fit, not the best, so report 0 instead of the old 1.0.
  if (res.ss_tot > 0.0) {
    res.r_squared = 1.0 - res.ss_res / res.ss_tot;
  } else {
    res.r_squared = res.ss_res > 0.0 ? 0.0 : 1.0;
  }
  return res;
}

double mean(std::span<const double> v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

double variance(std::span<const double> v) {
  if (v.empty()) return 0.0;
  const double m = mean(v);
  double s = 0.0;
  for (double x : v) s += (x - m) * (x - m);
  return s / static_cast<double>(v.size());
}

}  // namespace vecfd::stats
