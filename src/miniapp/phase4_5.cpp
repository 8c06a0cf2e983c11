// Phase 4: interpolate nodal data to the integration points (gpvel for two
// time levels, gpadv, the velocity gradient gpgve, gppre).
// Phase 5: the time-integration elemental arrays — SUPG τ, the weighted RHS
// rt = (ρf + dtfac·u_old)·gpvol, pt = gppre·gpvol, and the mass block when
// the semi-implicit scheme is active.
#include "miniapp/phases.h"

namespace vecfd::miniapp {

using fem::kDim;
using fem::kGauss;
using fem::kNodes;
using sim::Vpu;

namespace {

// ---- phase 4 subkernels ---------------------------------------------------

template <class L>
void p4_vel(L l, const Ctx& ctx, ElementChunk& ch, int g) {
  const fem::ShapeTable& sh = *ctx.shape;
  for (int t = 0; t < 2; ++t) {
    for (int d = 0; d < kDim; ++d) {
      auto plane = [&](int a) {
        return t == 0 ? ch.elvel(d, a) : ch.elvel_old(d, a);
      };
      auto acc = l.mul_s(l.load(plane(0)), sh.n(g, 0));
      for (int a = 1; a < kNodes; ++a) {
        acc = l.fma_s(l.load(plane(a)), sh.n(g, a), acc);
      }
      l.store(ch.gpvel(t, g, d), acc);
      if (t == 0) l.store(ch.gpadv(g, d), acc);
    }
  }
}

template <class L>
void p4_gve(L l, ElementChunk& ch, int g) {
  for (int j = 0; j < kDim; ++j) {
    typename L::V car[kNodes];
    for (int a = 0; a < kNodes; ++a) car[a] = l.load(ch.gpcar(g, j, a));
    for (int d = 0; d < kDim; ++d) {
      auto acc = l.mul(car[0], l.load(ch.elvel(d, 0)));
      for (int a = 1; a < kNodes; ++a) {
        acc = l.fma(car[a], l.load(ch.elvel(d, a)), acc);
      }
      l.store(ch.gpgve(g, j, d), acc);
    }
  }
}

template <class L>
void p4_pre(L l, const Ctx& ctx, ElementChunk& ch, int g) {
  const fem::ShapeTable& sh = *ctx.shape;
  auto acc = l.mul_s(l.load(ch.elpre(0)), sh.n(g, 0));
  for (int a = 1; a < kNodes; ++a) {
    acc = l.fma_s(l.load(ch.elpre(a)), sh.n(g, a), acc);
  }
  l.store(ch.gppre(g), acc);
}

// ---- phase 5 subkernels ---------------------------------------------------

template <class L>
void p5_tau_rhs(L l, const Ctx& ctx, ElementChunk& ch, int g) {
  const fem::Physics& phys = ctx.state->physics();
  const auto vol = l.load(ch.gpvol(g));
  const auto h = l.cbrt(vol);
  const auto a0 = l.load(ch.gpadv(g, 0));
  const auto a1 = l.load(ch.gpadv(g, 1));
  const auto a2 = l.load(ch.gpadv(g, 2));
  auto s = l.mul(a0, a0);
  s = l.fma(a1, a1, s);
  s = l.fma(a2, a2, s);
  const auto advn = l.sqrt(s);
  const auto t1 = l.mul(h, h);
  const auto t2 = l.mul_s(t1, phys.density);
  const auto num = l.splat(4.0 * phys.viscosity);
  const auto d1 = l.div(num, t2);
  const auto t4 = l.mul_s(advn, 2.0);
  const auto d2 = l.div(t4, h);
  auto den = l.add(d1, d2);
  const auto dtf = l.load(ch.dtfac());
  den = l.add(den, dtf);
  const auto g00 = l.load(ch.gpgve(g, 0, 0));
  auto s2 = l.mul(g00, g00);
  for (int j = 0; j < kDim; ++j) {
    for (int d = 0; d < kDim; ++d) {
      if (j == 0 && d == 0) continue;
      const auto gv = l.load(ch.gpgve(g, j, d));
      s2 = l.fma(gv, gv, s2);
    }
  }
  const auto gn = l.sqrt(s2);
  den = l.fma_s(gn, 0.1, den);
  const auto one = l.splat(1.0);
  const auto tau = l.div(one, den);
  l.store(ch.tau(g), tau);
  for (int d = 0; d < kDim; ++d) {
    const double cd = phys.density * phys.force[d];
    const auto uold = l.load(ch.gpvel(1, g, d));
    const auto t = l.mul(dtf, uold);
    const auto f = l.add_s(t, cd);
    const auto rt = l.mul(f, vol);
    l.store(ch.gprhs(g, d), rt);
  }
  const auto pre = l.load(ch.gppre(g));
  const auto pt = l.mul(pre, vol);
  l.store(ch.gppre_t(g), pt);
}

template <class L>
void p5_mass(L l, const Ctx& ctx, ElementChunk& ch) {
  const fem::ShapeTable& sh = *ctx.shape;
  typename L::V vol[kGauss];
  for (int g = 0; g < kGauss; ++g) vol[g] = l.load(ch.gpvol(g));
  for (int a = 0; a < kNodes; ++a) {
    for (int b = 0; b < kNodes; ++b) {
      auto acc = l.mul_s(vol[0], sh.n(0, a) * sh.n(0, b));
      for (int g = 1; g < kGauss; ++g) {
        acc = l.fma_s(vol[g], sh.n(g, a) * sh.n(g, b), acc);
      }
      l.store(ch.mass(a, b), acc);
    }
  }
}

}  // namespace

void phase4(Vpu& vpu, const Ctx& ctx, ElementChunk& ch) {
  const PhasePlan& plan = *ctx.plan;
  detail::for_groups(vpu, ch, [&](int off, int n) {
    for (int g = 0; g < kGauss; ++g) {
      detail::for_lanes(vpu, plan.p4_vel.vectorize, off, n,
                        [&](auto l) { p4_vel(l, ctx, ch, g); });
      detail::for_lanes(vpu, plan.p4_gve.vectorize, off, n,
                        [&](auto l) { p4_gve(l, ch, g); });
      detail::for_lanes(vpu, plan.p4_pre.vectorize, off, n,
                        [&](auto l) { p4_pre(l, ctx, ch, g); });
    }
  });
}

void phase5(Vpu& vpu, const Ctx& ctx, ElementChunk& ch) {
  const PhasePlan& plan = *ctx.plan;
  const bool with_mass = ctx.cfg.scheme == fem::Scheme::kSemiImplicit;
  detail::for_groups(vpu, ch, [&](int off, int n) {
    for (int g = 0; g < kGauss; ++g) {
      detail::for_lanes(vpu, plan.p5_tau.vectorize, off, n,
                        [&](auto l) { p5_tau_rhs(l, ctx, ch, g); });
    }
    if (with_mass) {
      detail::for_lanes(vpu, plan.p5_mass.vectorize, off, n,
                        [&](auto l) { p5_mass(l, ctx, ch); });
    }
  });
}

}  // namespace vecfd::miniapp
