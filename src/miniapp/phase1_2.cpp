// Phases 1 and 2: gather from the global mesh/state into the chunk-local
// SoA arrays.  These are the memory-bound phases whose vectorization the
// paper's VEC1 / VEC2 / IVEC2 optimizations target.
#include "miniapp/phases.h"

namespace vecfd::miniapp {

using fem::kDim;
using fem::kDofs;
using fem::kNodes;
using sim::Vec;
using sim::Vpu;

namespace {

// ---- phase 1 -----------------------------------------------------------

/// Work A: per-element bookkeeping — connectivity gather, material lookup,
/// time-step factor, validity flag.  Short branchy indexed loops: never
/// vectorized (and in the fused form it drags work B down with it).
void p1_work_a(Vpu& vpu, const Ctx& ctx, ElementChunk& ch, int iv) {
  const fem::Mesh& mesh = *ctx.mesh;
  const fem::Physics& phys = ctx.state->physics();
  const double base_dt = phys.density / phys.dt;

  vpu.sarith(2);  // bounds compare + select
  const bool ok = iv < ch.count();
  vpu.sstore_i32(ch.valid() + iv, ok ? 1 : 0);
  // Padding lanes clamp to the chunk's first element so downstream phases
  // compute well-defined (discarded) values.
  const int e = ok ? ch.first() + iv : ch.first();
  std::int32_t ln[kNodes];
  for (int a = 0; a < kNodes; ++a) {
    ln[a] = vpu.sload_i32(mesh.lnods_data() +
                          static_cast<std::size_t>(e) * kNodes + a);
    vpu.sstore_i32(ch.lnods(a) + iv, ln[a]);
  }
  const std::int32_t mat = vpu.sload_i32(mesh.material_data() + e);
  vpu.sarith(2);  // branch + scale
  const double f = mat == 0 ? base_dt : 1.02 * base_dt;
  vpu.sstore(ch.dtfac() + iv, f);
  // element-type dispatch (Alya selects shape tables per element type):
  // connectivity sanity fold + a first-node geometry probe.  All branchy
  // integer work — exactly what keeps work A off the VPU.
  std::int32_t fold = ln[0];
  for (int a = 1; a < kNodes; ++a) {
    fold ^= ln[a];
    vpu.sarith(1);
  }
  const double* x0 = mesh.coords_data() + static_cast<std::size_t>(ln[0]) * kDim;
  double inside = 0.0;
  for (int d = 0; d < kDim; ++d) {
    const double c = vpu.sload(x0 + d);
    vpu.sarith(2);  // two bound compares per dimension
    inside += c;
  }
  vpu.sarith(3);  // type selection cascade
  const std::int32_t etype = (fold >= 0 && inside > -1e30) ? 0 : -1;
  vpu.sstore_i32(ch.etype() + iv, etype);
}

/// Work B: gather the element node coordinates.  Vectorized, this is the
/// VEC1 fission product: indexed gathers over ivect.
template <class L>
void p1_work_b(L l, const Ctx& ctx, ElementChunk& ch) {
  const double* coords = ctx.mesh->coords_data();
  for (int a = 0; a < kNodes; ++a) {
    const auto i3 = l.imul_s(l.load_i32(ch.lnods(a)), kDim);
    for (int d = 0; d < kDim; ++d) {
      l.store(ch.elcod(d, a), l.gather(coords, l.iadd_s(i3, d)));
    }
  }
}

// ---- phase 2 -----------------------------------------------------------

/// Gather the element unknowns node by node.  Scalar, this is the vanilla
/// ivect-outer loop; vectorized, it is IVEC2's interchanged nest with
/// ivect innermost — long gathers.
template <class L>
void p2_gather(L l, const Ctx& ctx, ElementChunk& ch) {
  const double* unk = ctx.state->unknowns_data();
  const double* unk_old = ctx.state->unknowns_old_data();
  for (int a = 0; a < kNodes; ++a) {
    const auto i4 = l.imul_s(l.load_i32(ch.lnods(a)), kDofs);
    for (int dof = 0; dof < kDofs; ++dof) {
      l.store(ch.elunk(dof, a), l.gather(unk, l.iadd_s(i4, dof)));
    }
    for (int d = 0; d < kDim; ++d) {
      l.store(ch.elvel_old(d, a), l.gather(unk_old, l.iadd_s(i4, d)));
    }
  }
}

/// VEC2: constant bound lets the compiler vectorize the per-node dof copy —
/// vl = 4 (current u,v,w,p) and vl = 3 (old velocity).  Counter-productive:
/// the VPU issues tiny instructions.
void p2_vec2(Vpu& vpu, const Ctx& ctx, ElementChunk& ch) {
  const double* unk = ctx.state->unknowns_data();
  const double* unk_old = ctx.state->unknowns_old_data();
  const std::ptrdiff_t plane = static_cast<std::ptrdiff_t>(kNodes) * ch.vs();
  for (int iv = 0; iv < ch.vs(); ++iv) {
    for (int a = 0; a < kNodes; ++a) {
      const std::int32_t n = vpu.sload_i32(ch.lnods(a) + iv);
      vpu.sarith(1);
      const std::size_t base = static_cast<std::size_t>(n) * kDofs;
      // vecfd-lint: allow(strip-mine-contract) VEC2's per-node vl=4/3 copy
      vpu.set_vl(kDofs);
      const Vec cur = vpu.vload(unk + base);
      vpu.vstore_strided(ch.elunk(0, a) + iv, plane, cur);
      vpu.set_vl(kDim);
      const Vec old = vpu.vload(unk_old + base);
      vpu.vstore_strided(ch.elvel_old(0, a) + iv, plane, old);
    }
  }
}

}  // namespace

void phase1(Vpu& vpu, const Ctx& ctx, ElementChunk& ch) {
  const PhasePlan& plan = *ctx.plan;
  if (plan.p1_split) {
    // VEC1: fissioned loops — work A first, then work B.
    for (int iv = 0; iv < ch.vs(); ++iv) p1_work_a(vpu, ctx, ch, iv);
    detail::for_groups(vpu, ch, [&](int off, int n) {
      detail::for_lanes(vpu, plan.p1_work_b.vectorize, off, n,
                        [&](auto l) { p1_work_b(l, ctx, ch); });
    });
  } else {
    // fused: one outer loop over elements, A then B per element — the shape
    // that defeats the vectorizer (§4, Algorithm 3).
    for (int iv = 0; iv < ch.vs(); ++iv) {
      p1_work_a(vpu, ctx, ch, iv);
      p1_work_b(sim::ScalarLane{vpu, iv}, ctx, ch);
    }
  }
}

void phase2(Vpu& vpu, const Ctx& ctx, ElementChunk& ch) {
  const PhasePlan& plan = *ctx.plan;
  bool vectorize = plan.p2.vectorize;
  switch (plan.p2_shape) {
    case Phase2Shape::kScalarOuterIvect:
      // vanilla: the VECTOR_DIM bound is re-loaded from memory every
      // iteration — the compiler cannot vectorize anything here
      for (int iv = 0; iv < ch.vs(); ++iv) {
        (void)vpu.sload(ctx.vector_dim_slot);  // fetch VECTOR_DIM
        vpu.sarith(1);                         // compare against it
        p2_gather(sim::ScalarLane{vpu, iv}, ctx, ch);
      }
      return;
    case Phase2Shape::kDofInner:
      // the vl=4 dof copy needs registers that hold all four dofs; a
      // narrower machine strip-mines nothing useful here and the compiler
      // falls back to scalar
      if (vectorize && vpu.vlmax() >= fem::kDofs) {
        p2_vec2(vpu, ctx, ch);
        return;
      }
      vectorize = false;
      break;
    case Phase2Shape::kIvectInner:
      break;
  }
  detail::for_groups(vpu, ch, [&](int off, int n) {
    detail::for_lanes(vpu, vectorize, off, n,
                      [&](auto l) { p2_gather(l, ctx, ch); });
  });
}

}  // namespace vecfd::miniapp
