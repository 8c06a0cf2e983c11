#include "fem/shape.h"

#include <stdexcept>

namespace vecfd::fem {

namespace {
// Reference-node coordinates of the Q1 hexahedron, standard ordering.
constexpr std::array<std::array<double, 3>, kNodes> kRefNodes = {{
    {-1.0, -1.0, -1.0},
    {+1.0, -1.0, -1.0},
    {+1.0, +1.0, -1.0},
    {-1.0, +1.0, -1.0},
    {-1.0, -1.0, +1.0},
    {+1.0, -1.0, +1.0},
    {+1.0, +1.0, +1.0},
    {-1.0, +1.0, +1.0},
}};
}  // namespace

std::array<double, kNodes> shape_values(const std::array<double, 3>& xi) {
  std::array<double, kNodes> n{};
  for (int a = 0; a < kNodes; ++a) {
    n[a] = 0.125 * (1.0 + kRefNodes[a][0] * xi[0]) *
           (1.0 + kRefNodes[a][1] * xi[1]) * (1.0 + kRefNodes[a][2] * xi[2]);
  }
  return n;
}

std::array<double, kDim * kNodes> shape_derivatives(
    const std::array<double, 3>& xi) {
  std::array<double, kDim * kNodes> dn{};
  for (int a = 0; a < kNodes; ++a) {
    const double fx = 1.0 + kRefNodes[a][0] * xi[0];
    const double fy = 1.0 + kRefNodes[a][1] * xi[1];
    const double fz = 1.0 + kRefNodes[a][2] * xi[2];
    dn[0 * kNodes + a] = 0.125 * kRefNodes[a][0] * fy * fz;
    dn[1 * kNodes + a] = 0.125 * fx * kRefNodes[a][1] * fz;
    dn[2 * kNodes + a] = 0.125 * fx * fy * kRefNodes[a][2];
  }
  return dn;
}

ShapeTable::ShapeTable(const HexQuadrature& quad) {
  if (quad.size() != kGauss) {
    throw std::invalid_argument(
        "ShapeTable: the assembly kernels are specialized for the 2x2x2 rule "
        "(8 Gauss points)");
  }
  for (int g = 0; g < kGauss; ++g) {
    const auto nv = shape_values(quad.point(g));
    const auto dv = shape_derivatives(quad.point(g));
    for (int a = 0; a < kNodes; ++a) n_[g * kNodes + a] = nv[a];
    for (int j = 0; j < kDim; ++j) {
      for (int a = 0; a < kNodes; ++a) {
        dn_[(g * kDim + j) * kNodes + a] = dv[j * kNodes + a];
      }
    }
    w_[g] = quad.weight(g);
  }
}

}  // namespace vecfd::fem
