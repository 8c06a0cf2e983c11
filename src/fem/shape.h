// vecfd::fem — trilinear (Q1) hexahedron shape functions.
#pragma once

#include <array>

#include "fem/element.h"
#include "fem/quadrature.h"

namespace vecfd::fem {

/// Evaluate the 8 trilinear shape functions at reference point (ξ, η, ζ).
std::array<double, kNodes> shape_values(const std::array<double, 3>& xi);

/// Evaluate the reference-space derivatives ∂N_a/∂ξ_j, laid out [j][a].
std::array<double, kDim * kNodes> shape_derivatives(
    const std::array<double, 3>& xi);

/// Shape functions and derivatives tabulated at the Gauss points of the
/// standard 2×2×2 rule — the constant tables every assembly kernel reads
/// (in Alya these are the `gpsha` / `deriv` element-type tables).
class ShapeTable {
 public:
  explicit ShapeTable(const HexQuadrature& quad = HexQuadrature{2});

  /// N_a evaluated at Gauss point g.
  double n(int g, int a) const { return n_[g * kNodes + a]; }
  /// ∂N_a/∂ξ_j evaluated at Gauss point g.
  double dn(int g, int j, int a) const {
    return dn_[(g * kDim + j) * kNodes + a];
  }
  /// Quadrature weight of Gauss point g.
  double weight(int g) const { return w_[g]; }

 private:
  std::array<double, kGauss * kNodes> n_{};
  std::array<double, kGauss * kDim * kNodes> dn_{};
  std::array<double, kGauss> w_{};
};

}  // namespace vecfd::fem
