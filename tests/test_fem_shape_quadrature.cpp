// Tests for quadrature rules and Q1 hex shape functions, including the
// classic FEM property tests (partition of unity, derivative consistency,
// polynomial exactness).
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <random>

#include "fem/quadrature.h"
#include "fem/shape.h"

namespace {

using vecfd::fem::gauss_legendre_1d;
using vecfd::fem::HexQuadrature;
using vecfd::fem::kDim;
using vecfd::fem::kGauss;
using vecfd::fem::kNodes;
using vecfd::fem::shape_derivatives;
using vecfd::fem::shape_values;
using vecfd::fem::ShapeTable;

TEST(Quadrature1D, WeightsSumToTwo) {
  for (int n = 1; n <= 4; ++n) {
    const auto r = gauss_legendre_1d(n);
    double s = 0.0;
    for (double w : r.weights) s += w;
    EXPECT_NEAR(s, 2.0, 1e-14) << "n=" << n;
  }
}

TEST(Quadrature1D, RejectsUnsupportedOrders) {
  EXPECT_THROW(gauss_legendre_1d(0), std::invalid_argument);
  EXPECT_THROW(gauss_legendre_1d(5), std::invalid_argument);
}

// Gauss-Legendre with n points integrates x^k exactly for k ≤ 2n−1.
class QuadratureExactness : public ::testing::TestWithParam<int> {};

TEST_P(QuadratureExactness, IntegratesPolynomialsExactly) {
  const int n = GetParam();
  const auto r = gauss_legendre_1d(n);
  for (int k = 0; k <= 2 * n - 1; ++k) {
    double got = 0.0;
    for (std::size_t i = 0; i < r.points.size(); ++i) {
      got += r.weights[i] * std::pow(r.points[i], k);
    }
    const double exact = (k % 2 == 1) ? 0.0 : 2.0 / (k + 1);
    EXPECT_NEAR(got, exact, 1e-12) << "n=" << n << " k=" << k;
  }
}

INSTANTIATE_TEST_SUITE_P(Orders, QuadratureExactness,
                         ::testing::Values(1, 2, 3, 4));

TEST(HexQuadrature, TensorProductSize) {
  EXPECT_EQ(HexQuadrature(1).size(), 1);
  EXPECT_EQ(HexQuadrature(2).size(), 8);
  EXPECT_EQ(HexQuadrature(3).size(), 27);
}

TEST(HexQuadrature, WeightsSumToReferenceVolume) {
  const HexQuadrature q(2);
  double s = 0.0;
  for (int g = 0; g < q.size(); ++g) s += q.weight(g);
  EXPECT_NEAR(s, 8.0, 1e-13);
}

TEST(Shape, PartitionOfUnityAtRandomPoints) {
  std::mt19937 rng(42);
  std::uniform_real_distribution<double> u(-1.0, 1.0);
  for (int trial = 0; trial < 200; ++trial) {
    const std::array<double, 3> xi{u(rng), u(rng), u(rng)};
    const auto n = shape_values(xi);
    double s = 0.0;
    for (double v : n) s += v;
    EXPECT_NEAR(s, 1.0, 1e-13);
  }
}

TEST(Shape, DerivativesSumToZero) {
  // Σ_a ∂N_a/∂ξ_j = 0 (constant field has zero gradient)
  std::mt19937 rng(7);
  std::uniform_real_distribution<double> u(-1.0, 1.0);
  for (int trial = 0; trial < 200; ++trial) {
    const std::array<double, 3> xi{u(rng), u(rng), u(rng)};
    const auto dn = shape_derivatives(xi);
    for (int j = 0; j < kDim; ++j) {
      double s = 0.0;
      for (int a = 0; a < kNodes; ++a) s += dn[j * kNodes + a];
      EXPECT_NEAR(s, 0.0, 1e-13);
    }
  }
}

TEST(Shape, KroneckerDeltaAtNodes) {
  constexpr std::array<std::array<double, 3>, kNodes> nodes = {{
      {-1, -1, -1}, {1, -1, -1}, {1, 1, -1}, {-1, 1, -1},
      {-1, -1, 1}, {1, -1, 1}, {1, 1, 1}, {-1, 1, 1},
  }};
  for (int b = 0; b < kNodes; ++b) {
    const auto n = shape_values(nodes[b]);
    for (int a = 0; a < kNodes; ++a) {
      EXPECT_NEAR(n[a], a == b ? 1.0 : 0.0, 1e-14);
    }
  }
}

TEST(Shape, DerivativeMatchesFiniteDifference) {
  const std::array<double, 3> xi{0.3, -0.2, 0.55};
  const auto dn = shape_derivatives(xi);
  const double h = 1e-6;
  for (int j = 0; j < kDim; ++j) {
    std::array<double, 3> xp = xi;
    std::array<double, 3> xm = xi;
    xp[j] += h;
    xm[j] -= h;
    const auto np = shape_values(xp);
    const auto nm = shape_values(xm);
    for (int a = 0; a < kNodes; ++a) {
      const double fd = (np[a] - nm[a]) / (2.0 * h);
      EXPECT_NEAR(dn[j * kNodes + a], fd, 1e-8);
    }
  }
}

TEST(Shape, InterpolatesTrilinearFieldsExactly) {
  // f(x) = 2 + x − 3y + 0.5z + xy − yz + 0.25xyz is trilinear → exact
  auto f = [](double x, double y, double z) {
    return 2.0 + x - 3.0 * y + 0.5 * z + x * y - y * z + 0.25 * x * y * z;
  };
  constexpr std::array<std::array<double, 3>, kNodes> nodes = {{
      {-1, -1, -1}, {1, -1, -1}, {1, 1, -1}, {-1, 1, -1},
      {-1, -1, 1}, {1, -1, 1}, {1, 1, 1}, {-1, 1, 1},
  }};
  std::array<double, kNodes> fa{};
  for (int a = 0; a < kNodes; ++a) {
    fa[a] = f(nodes[a][0], nodes[a][1], nodes[a][2]);
  }
  std::mt19937 rng(3);
  std::uniform_real_distribution<double> u(-1.0, 1.0);
  for (int trial = 0; trial < 100; ++trial) {
    const std::array<double, 3> xi{u(rng), u(rng), u(rng)};
    const auto n = shape_values(xi);
    double got = 0.0;
    for (int a = 0; a < kNodes; ++a) got += n[a] * fa[a];
    EXPECT_NEAR(got, f(xi[0], xi[1], xi[2]), 1e-12);
  }
}

TEST(ShapeTable, MatchesPointwiseEvaluation) {
  const HexQuadrature q(2);
  const ShapeTable t(q);
  for (int g = 0; g < kGauss; ++g) {
    const auto n = shape_values(q.point(g));
    const auto dn = shape_derivatives(q.point(g));
    for (int a = 0; a < kNodes; ++a) {
      EXPECT_DOUBLE_EQ(t.n(g, a), n[a]);
      for (int j = 0; j < kDim; ++j) {
        EXPECT_DOUBLE_EQ(t.dn(g, j, a), dn[j * kNodes + a]);
      }
    }
    EXPECT_DOUBLE_EQ(t.weight(g), q.weight(g));
  }
}

TEST(ShapeTable, RejectsNon8PointRules) {
  EXPECT_THROW(ShapeTable(HexQuadrature(3)), std::invalid_argument);
}

}  // namespace
