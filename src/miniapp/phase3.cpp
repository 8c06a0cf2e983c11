// Phase 3: Jacobian at the integration points — J, det/inverse, Cartesian
// derivatives (gpcar) and the quadrature measure (gpvol).  FP-heavy with
// divisions; three subkernels the vectorizer analyzes independently.
#include "miniapp/phases.h"

namespace vecfd::miniapp {

using fem::kDim;
using fem::kGauss;
using fem::kNodes;
using sim::Vpu;

namespace {

// jac(i,j) = Σ_a elcod(i,a)·∂N_a/∂ξ_j  → jtmp
template <class L>
void s1_jac(L l, const Ctx& ctx, ElementChunk& ch, int g) {
  const fem::ShapeTable& sh = *ctx.shape;
  for (int i = 0; i < kDim; ++i) {
    typename L::V ec[kNodes];
    for (int a = 0; a < kNodes; ++a) ec[a] = l.load(ch.elcod(i, a));
    for (int j = 0; j < kDim; ++j) {
      auto acc = l.mul_s(ec[0], sh.dn(g, j, 0));
      for (int a = 1; a < kNodes; ++a) {
        acc = l.fma_s(ec[a], sh.dn(g, j, a), acc);
      }
      l.store(ch.jtmp(i, j), acc);
    }
  }
}

// det, J⁻¹ (→ itmp, laid out [j][d] = ∂ξ_j/∂x_d) and gpvol
template <class L>
void s2_inv(L l, const Ctx& ctx, ElementChunk& ch, int g) {
  const fem::ShapeTable& sh = *ctx.shape;
  typename L::V j[kDim][kDim];
  for (int i = 0; i < kDim; ++i) {
    for (int jj = 0; jj < kDim; ++jj) j[i][jj] = l.load(ch.jtmp(i, jj));
  }
  auto cof = [&](int r1, int c1, int r2, int c2, int r3, int c3, int r4,
                 int c4) {
    // j[r1][c1]·j[r2][c2] − j[r3][c3]·j[r4][c4]
    const auto t = l.mul(j[r1][c1], j[r2][c2]);
    return l.fnma(j[r3][c3], j[r4][c4], t);
  };
  const auto c00 = cof(1, 1, 2, 2, 1, 2, 2, 1);
  const auto c01 = cof(1, 2, 2, 0, 1, 0, 2, 2);
  const auto c02 = cof(1, 0, 2, 1, 1, 1, 2, 0);
  const auto c10 = cof(0, 2, 2, 1, 0, 1, 2, 2);
  const auto c11 = cof(0, 0, 2, 2, 0, 2, 2, 0);
  const auto c12 = cof(0, 1, 2, 0, 0, 0, 2, 1);
  const auto c20 = cof(0, 1, 1, 2, 0, 2, 1, 1);
  const auto c21 = cof(0, 2, 1, 0, 0, 0, 1, 2);
  const auto c22 = cof(0, 0, 1, 1, 0, 1, 1, 0);
  auto det = l.mul(j[0][2], c02);
  det = l.fma(j[0][1], c01, det);
  det = l.fma(j[0][0], c00, det);
  const auto one = l.splat(1.0);
  const auto invdet = l.div(one, det);
  // itmp[j][d] = ∂ξ_j/∂x_d = cof(d,j)ᵀ·invdet
  l.store(ch.itmp(0, 0), l.mul(c00, invdet));
  l.store(ch.itmp(0, 1), l.mul(c10, invdet));
  l.store(ch.itmp(0, 2), l.mul(c20, invdet));
  l.store(ch.itmp(1, 0), l.mul(c01, invdet));
  l.store(ch.itmp(1, 1), l.mul(c11, invdet));
  l.store(ch.itmp(1, 2), l.mul(c21, invdet));
  l.store(ch.itmp(2, 0), l.mul(c02, invdet));
  l.store(ch.itmp(2, 1), l.mul(c12, invdet));
  l.store(ch.itmp(2, 2), l.mul(c22, invdet));
  l.store(ch.gpvol(g), l.mul_s(det, sh.weight(g)));
}

// gpcar(d,a) = Σ_j itmp(j,d)·∂N_a/∂ξ_j
template <class L>
void s3_car(L l, const Ctx& ctx, ElementChunk& ch, int g) {
  const fem::ShapeTable& sh = *ctx.shape;
  for (int d = 0; d < kDim; ++d) {
    const auto i0 = l.load(ch.itmp(0, d));
    const auto i1 = l.load(ch.itmp(1, d));
    const auto i2 = l.load(ch.itmp(2, d));
    for (int a = 0; a < kNodes; ++a) {
      auto t = l.mul_s(i0, sh.dn(g, 0, a));
      t = l.fma_s(i1, sh.dn(g, 1, a), t);
      t = l.fma_s(i2, sh.dn(g, 2, a), t);
      l.store(ch.gpcar(g, d, a), t);
    }
  }
}

}  // namespace

void phase3(Vpu& vpu, const Ctx& ctx, ElementChunk& ch) {
  const PhasePlan& plan = *ctx.plan;
  detail::for_groups(vpu, ch, [&](int off, int n) {
    for (int g = 0; g < kGauss; ++g) {
      detail::for_lanes(vpu, plan.p3_jac.vectorize, off, n,
                        [&](auto l) { s1_jac(l, ctx, ch, g); });
      detail::for_lanes(vpu, plan.p3_inv.vectorize, off, n,
                        [&](auto l) { s2_inv(l, ctx, ch, g); });
      detail::for_lanes(vpu, plan.p3_car.vectorize, off, n,
                        [&](auto l) { s3_car(l, ctx, ch, g); });
    }
  });
}

}  // namespace vecfd::miniapp
