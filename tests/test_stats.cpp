// Tests for OLS regression and summary statistics (the Table 6 machinery).
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "stats/ols.h"

namespace {

using vecfd::stats::mean;
using vecfd::stats::ols_fit;
using vecfd::stats::variance;

TEST(Ols, RecoversExactLinearModel) {
  // y = 2 + 3·x1 − 0.5·x2, no noise → R² = 1 and exact coefficients
  std::vector<double> x1{1, 2, 3, 4, 5, 6};
  std::vector<double> x2{3, 1, 4, 1, 5, 9};
  std::vector<double> y(6);
  for (int i = 0; i < 6; ++i) y[i] = 2.0 + 3.0 * x1[i] - 0.5 * x2[i];
  const auto r = ols_fit({x1, x2}, y);
  EXPECT_NEAR(r.beta[0], 2.0, 1e-9);
  EXPECT_NEAR(r.beta[1], 3.0, 1e-9);
  EXPECT_NEAR(r.beta[2], -0.5, 1e-9);
  EXPECT_NEAR(r.r_squared, 1.0, 1e-12);
}

TEST(Ols, RSquaredDropsWithNoise) {
  std::vector<double> x{1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<double> y{1.2, 1.8, 3.4, 3.6, 5.5, 5.4, 7.3, 7.8};
  const auto r = ols_fit({x}, y);
  EXPECT_GT(r.r_squared, 0.95);
  EXPECT_LT(r.r_squared, 1.0);
}

TEST(Ols, PredictMatchesFit) {
  std::vector<double> x{0, 1, 2, 3};
  std::vector<double> y{1, 3, 5, 7};  // y = 1 + 2x
  const auto r = ols_fit({x}, y);
  const double p = r.predict(std::vector<double>{10.0});
  EXPECT_NEAR(p, 21.0, 1e-9);
}

TEST(Ols, PredictRejectsWrongArity) {
  std::vector<double> x{0, 1, 2, 3};
  std::vector<double> y{1, 3, 5, 7};
  const auto r = ols_fit({x}, y);
  EXPECT_THROW(r.predict(std::vector<double>{1.0, 2.0}),
               std::invalid_argument);
}

TEST(Ols, RejectsShapeErrors) {
  std::vector<double> x{1, 2, 3};
  std::vector<double> y2{1, 2};
  EXPECT_THROW(ols_fit({x}, y2), std::invalid_argument);
  EXPECT_THROW(ols_fit({}, std::vector<double>{}), std::invalid_argument);
  // underdetermined: n ≤ k
  std::vector<double> a{1, 2};
  std::vector<double> b{2, 1};
  std::vector<double> yy{1, 2};
  EXPECT_THROW(ols_fit({a, b}, yy), std::invalid_argument);
}

TEST(Ols, SingularOnCollinearRegressors) {
  std::vector<double> x1{1, 2, 3, 4};
  std::vector<double> x2{2, 4, 6, 8};  // 2·x1
  std::vector<double> y{1, 2, 3, 4};
  EXPECT_THROW(ols_fit({x1, x2}, y), std::runtime_error);
}

TEST(Ols, ConstantTargetHasUnitR2) {
  std::vector<double> x{1, 2, 3, 4};
  std::vector<double> y{5, 5, 5, 5};
  const auto r = ols_fit({x}, y);
  // ss_tot == 0 AND the fit is exact (ss_res == 0): R² = 1 is earned
  EXPECT_DOUBLE_EQ(r.ss_res, 0.0);
  EXPECT_DOUBLE_EQ(r.r_squared, 1.0);
}

TEST(Ols, ConstantTargetWithImperfectFitGetsZeroR2) {
  // y is exactly constant (ss_tot == 0 in exact FP) but the huge-scale
  // regressor makes the normal-equation solve round: the fitted line
  // misses the constant, ss_res > 0, and the old `ss_tot == 0 → R² = 1`
  // convention reported a perfect fit for a visibly bad one.
  std::vector<double> x{1.3e8, 2.7e8, 4.1e8, 8.9e8};
  std::vector<double> y{7.0, 7.0, 7.0, 7.0};
  const auto r = ols_fit({x}, y);
  EXPECT_DOUBLE_EQ(r.ss_tot, 0.0);
  ASSERT_GT(r.ss_res, 0.0);
  EXPECT_DOUBLE_EQ(r.r_squared, 0.0);
}

TEST(Summary, MeanVariance) {
  std::vector<double> v{2, 4, 4, 4, 5, 5, 7, 9};
  EXPECT_DOUBLE_EQ(mean(v), 5.0);
  EXPECT_DOUBLE_EQ(variance(v), 4.0);
  EXPECT_DOUBLE_EQ(mean(std::vector<double>{}), 0.0);
}

}  // namespace
