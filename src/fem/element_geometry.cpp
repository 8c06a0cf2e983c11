#include "fem/element_geometry.h"

namespace vecfd::fem {

double element_dt_factor(const Physics& phys, std::int32_t material) {
  const double base = phys.density / phys.dt;
  // Material band 1 models a locally adjusted time scale; the branch is the
  // kind of per-element bookkeeping phase-1 "work A" performs.
  return material == 0 ? base : 1.02 * base;
}

void element_geometry(const Mesh& mesh, const ShapeTable& shape, int elem,
                      ElementGeometry& out) {
  const auto ln = mesh.element(elem);
  double elcod[kDim][kNodes];
  for (int a = 0; a < kNodes; ++a) {
    const auto x = mesh.node(ln[a]);
    for (int d = 0; d < kDim; ++d) elcod[d][a] = x[d];
  }
  double (&gpcar)[kGauss][kDim][kNodes] = out.gpcar;
  double (&gpvol)[kGauss] = out.gpvol;
  for (int g = 0; g < kGauss; ++g) {
    double jac[kDim][kDim];
    for (int i = 0; i < kDim; ++i) {
      for (int j = 0; j < kDim; ++j) {
        double s = 0.0;
        for (int a = 0; a < kNodes; ++a) {
          s = elcod[i][a] * shape.dn(g, j, a) + s;
        }
        jac[i][j] = s;
      }
    }
    // cofactors (expression trees match the phase-3 kernel: mul, then a
    // fused multiply-subtract `t − a·b`)
    auto cof = [&](int r1, int c1, int r2, int c2, int r3, int c3, int r4,
                   int c4) {
      const double t = jac[r1][c1] * jac[r2][c2];
      return t - jac[r3][c3] * jac[r4][c4];
    };
    const double c00 = cof(1, 1, 2, 2, 1, 2, 2, 1);
    const double c01 = cof(1, 2, 2, 0, 1, 0, 2, 2);
    const double c02 = cof(1, 0, 2, 1, 1, 1, 2, 0);
    const double c10 = cof(0, 2, 2, 1, 0, 1, 2, 2);
    const double c11 = cof(0, 0, 2, 2, 0, 2, 2, 0);
    const double c12 = cof(0, 1, 2, 0, 0, 0, 2, 1);
    const double c20 = cof(0, 1, 1, 2, 0, 2, 1, 1);
    const double c21 = cof(0, 2, 1, 0, 0, 0, 1, 2);
    const double c22 = cof(0, 0, 1, 1, 0, 1, 1, 0);
    double det = jac[0][2] * c02;
    det = jac[0][1] * c01 + det;
    det = jac[0][0] * c00 + det;
    const double invdet = 1.0 / det;
    // jinv[j][d] = ∂ξ_j/∂x_d
    double jinv[kDim][kDim];
    jinv[0][0] = c00 * invdet;
    jinv[0][1] = c10 * invdet;
    jinv[0][2] = c20 * invdet;
    jinv[1][0] = c01 * invdet;
    jinv[1][1] = c11 * invdet;
    jinv[1][2] = c21 * invdet;
    jinv[2][0] = c02 * invdet;
    jinv[2][1] = c12 * invdet;
    jinv[2][2] = c22 * invdet;

    gpvol[g] = shape.weight(g) * det;
    for (int d = 0; d < kDim; ++d) {
      for (int a = 0; a < kNodes; ++a) {
        double s = 0.0;
        for (int j = 0; j < kDim; ++j) {
          s = jinv[j][d] * shape.dn(g, j, a) + s;
        }
        gpcar[g][d][a] = s;
      }
    }
  }
}

}  // namespace vecfd::fem
