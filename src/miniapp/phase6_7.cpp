// Phase 6: SUPG convection — the advective derivative D, the weighted test
// function W, the convection block C = Σ W·D, and the momentum residual
// (time/pressure integral minus C·u).  The FMA-dominated heart of the
// mini-app (§2.3: "three sets of nested loops involving heavy arithmetic").
// Phase 7: the symmetric viscous block and its application, plus the
// combined semi-implicit element matrix K = dtfac·M + C + V.
#include "miniapp/phases.h"

namespace vecfd::miniapp {

using fem::kDim;
using fem::kGauss;
using fem::kNodes;
using sim::Vpu;

namespace {

// ---- phase 6 subkernels ---------------------------------------------------

template <class L>
void p6_dw(L l, const Ctx& ctx, ElementChunk& ch, int g) {
  const fem::ShapeTable& sh = *ctx.shape;
  const fem::Physics& phys = ctx.state->physics();
  const auto a0 = l.load(ch.gpadv(g, 0));
  const auto a1 = l.load(ch.gpadv(g, 1));
  const auto a2 = l.load(ch.gpadv(g, 2));
  const auto tg = l.load(ch.tau(g));
  const auto vol = l.load(ch.gpvol(g));
  const auto rv = l.mul_s(vol, phys.density);
  for (int a = 0; a < kNodes; ++a) {
    const auto c0 = l.load(ch.gpcar(g, 0, a));
    const auto c1 = l.load(ch.gpcar(g, 1, a));
    const auto c2 = l.load(ch.gpcar(g, 2, a));
    auto t = l.mul(a0, c0);
    t = l.fma(a1, c1, t);
    t = l.fma(a2, c2, t);
    l.store(ch.dmat(g, a), t);
    const auto nsp = l.splat(sh.n(g, a));
    const auto w = l.fma(tg, t, nsp);
    const auto wm = l.mul(w, rv);
    l.store(ch.wmat(g, a), wm);
  }
}

template <class L>
void p6_cab(L l, ElementChunk& ch) {
  for (int a = 0; a < kNodes; ++a) {
    typename L::V wa[kGauss];
    for (int g = 0; g < kGauss; ++g) wa[g] = l.load(ch.wmat(g, a));
    for (int b = 0; b < kNodes; ++b) {
      auto acc = l.mul(wa[0], l.load(ch.dmat(0, b)));
      for (int g = 1; g < kGauss; ++g) {
        acc = l.fma(wa[g], l.load(ch.dmat(g, b)), acc);
      }
      l.store(ch.conv(a, b), acc);
    }
  }
}

template <class L>
void p6_apply(L l, const Ctx& ctx, ElementChunk& ch) {
  const fem::ShapeTable& sh = *ctx.shape;
  for (int a = 0; a < kNodes; ++a) {
    for (int d = 0; d < kDim; ++d) {
      auto acc = l.mul_s(l.load(ch.gprhs(0, d)), sh.n(0, a));
      acc = l.fma(l.load(ch.gpcar(0, d, a)), l.load(ch.gppre_t(0)), acc);
      for (int g = 1; g < kGauss; ++g) {
        acc = l.fma_s(l.load(ch.gprhs(g, d)), sh.n(g, a), acc);
        acc = l.fma(l.load(ch.gpcar(g, d, a)), l.load(ch.gppre_t(g)), acc);
      }
      for (int b = 0; b < kNodes; ++b) {
        acc = l.fnma(l.load(ch.conv(a, b)), l.load(ch.elvel(d, b)), acc);
      }
      l.store(ch.elrhs(d, a), acc);
    }
  }
}

// ---- phase 7 subkernels ---------------------------------------------------

template <class L>
void p7_blk(L l, const Ctx& ctx, ElementChunk& ch) {
  const fem::Physics& phys = ctx.state->physics();
  typename L::V mv[kGauss];
  for (int g = 0; g < kGauss; ++g) {
    mv[g] = l.mul_s(l.load(ch.gpvol(g)), phys.viscosity);
  }
  for (int a = 0; a < kNodes; ++a) {
    for (int b = a; b < kNodes; ++b) {
      typename L::V acc{};
      for (int g = 0; g < kGauss; ++g) {
        auto q = l.mul(l.load(ch.gpcar(g, 0, a)), l.load(ch.gpcar(g, 0, b)));
        q = l.fma(l.load(ch.gpcar(g, 1, a)), l.load(ch.gpcar(g, 1, b)), q);
        q = l.fma(l.load(ch.gpcar(g, 2, a)), l.load(ch.gpcar(g, 2, b)), q);
        acc = g == 0 ? l.mul(mv[0], q) : l.fma(mv[g], q, acc);
      }
      l.store(ch.visc(a, b), acc);
      if (b != a) l.store(ch.visc(b, a), acc);
    }
  }
}

template <class L>
void p7_apply(L l, ElementChunk& ch) {
  for (int a = 0; a < kNodes; ++a) {
    for (int d = 0; d < kDim; ++d) {
      auto acc = l.load(ch.elrhs(d, a));
      for (int b = 0; b < kNodes; ++b) {
        acc = l.fnma(l.load(ch.visc(a, b)), l.load(ch.elvel(d, b)), acc);
      }
      l.store(ch.elrhs(d, a), acc);
    }
  }
}

// semi-implicit: K = dtfac·M + (C + V)
template <class L>
void p7_block(L l, ElementChunk& ch) {
  const auto dtf = l.load(ch.dtfac());
  for (int a = 0; a < kNodes; ++a) {
    for (int b = 0; b < kNodes; ++b) {
      const auto m = l.mul(dtf, l.load(ch.mass(a, b)));
      const auto cv = l.add(l.load(ch.conv(a, b)), l.load(ch.visc(a, b)));
      l.store(ch.block(a, b), l.add(m, cv));
    }
  }
}

}  // namespace

void phase6(Vpu& vpu, const Ctx& ctx, ElementChunk& ch) {
  const PhasePlan& plan = *ctx.plan;
  detail::for_groups(vpu, ch, [&](int off, int n) {
    for (int g = 0; g < kGauss; ++g) {
      detail::for_lanes(vpu, plan.p6_dw.vectorize, off, n,
                        [&](auto l) { p6_dw(l, ctx, ch, g); });
    }
    detail::for_lanes(vpu, plan.p6_cab.vectorize, off, n,
                      [&](auto l) { p6_cab(l, ch); });
    detail::for_lanes(vpu, plan.p6_apply.vectorize, off, n,
                      [&](auto l) { p6_apply(l, ctx, ch); });
  });
}

void phase7(Vpu& vpu, const Ctx& ctx, ElementChunk& ch) {
  const PhasePlan& plan = *ctx.plan;
  const bool semi = ctx.cfg.scheme == fem::Scheme::kSemiImplicit;
  detail::for_groups(vpu, ch, [&](int off, int n) {
    detail::for_lanes(vpu, plan.p7_blk.vectorize, off, n,
                      [&](auto l) { p7_blk(l, ctx, ch); });
    detail::for_lanes(vpu, plan.p7_apply.vectorize, off, n,
                      [&](auto l) { p7_apply(l, ch); });
    if (semi) {
      detail::for_lanes(vpu, plan.p7_blk.vectorize, off, n,
                        [&](auto l) { p7_block(l, ch); });
    }
  });
}

}  // namespace vecfd::miniapp
