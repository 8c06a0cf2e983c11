// vecfd::stats — ordinary least squares with R².
//
// §5 of the paper explains the cycle curves of the non-vectorized phases by
// regressing phase cycles on (L1 DCM per kilo-instruction, % memory
// instructions) and reporting coefficients of determination of 0.903 and
// 0.966 (Table 6).  This module provides that multiple-linear-regression
// machinery (normal equations, small dense solve, R²).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace vecfd::stats {

struct OlsResult {
  std::vector<double> beta;  ///< [intercept, b1, b2, ...]
  double r_squared = 0.0;    ///< coefficient of determination
  double ss_res = 0.0;       ///< residual sum of squares
  double ss_tot = 0.0;       ///< total sum of squares
  std::size_t n = 0;         ///< observations
  std::size_t k = 0;         ///< regressors (excluding intercept)

  /// Model prediction for one observation's regressor values.
  double predict(std::span<const double> x) const;
};

/// Fit y ≈ β₀ + Σ βⱼ Xⱼ.
///
/// @param xs one vector per regressor, each of length n
/// @param y  dependent variable, length n
/// @throws std::invalid_argument on shape mismatch or n ≤ k (underdetermined)
/// @throws std::runtime_error if the normal equations are singular
///         (e.g. perfectly collinear regressors)
OlsResult ols_fit(const std::vector<std::vector<double>>& xs,
                  std::span<const double> y);

// ---- small summary-statistics helpers used by reports and tests ---------
double mean(std::span<const double> v);
double variance(std::span<const double> v);  ///< population variance

}  // namespace vecfd::stats
