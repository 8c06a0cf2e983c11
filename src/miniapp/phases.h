// vecfd::miniapp — the eight instrumented phases of the assembly mini-app.
//
// Each phase mirrors its description in §2.3 of the paper and is written
// against the sim::Vpu instruction API.  Every subkernel has ONE body,
// templated on a lane type: `for_lanes` issues it either as a vector strip
// (VectorLanes: vload / vfma_s / vgather ...) or once per element as
// scalar code (ScalarLane: sload / sfma ...).  Which form runs is decided
// by the PhasePlan (the modelled compiler), so a single source of truth
// covers the scalar baseline, the vanilla auto-vectorized build and the
// VEC2 / IVEC2 / VEC1 source transformations.  Both forms compute
// identical values, which the test suite checks against
// fem::assemble_element.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "fem/mesh.h"
#include "fem/scheme.h"
#include "fem/shape.h"
#include "fem/state.h"
#include "miniapp/chunk.h"
#include "miniapp/config.h"
#include "miniapp/plan.h"
#include "sim/vpu.h"
#include "solver/csr.h"

namespace vecfd::miniapp {

/// Everything a phase kernel needs besides the chunk workspace.
struct Ctx {
  const fem::Mesh* mesh = nullptr;
  const fem::State* state = nullptr;
  const fem::ShapeTable* shape = nullptr;
  const PhasePlan* plan = nullptr;
  MiniAppConfig cfg;

  /// Memory slot standing in for the VECTOR_DIM dummy argument that the
  /// vanilla phase 2 re-loads every iteration (§4).
  const double* vector_dim_slot = nullptr;

  /// Global assembly targets (phase 8).
  std::vector<double>* global_rhs = nullptr;   ///< [node·kDim]
  solver::CsrMatrix* global_matrix = nullptr;  ///< null for explicit scheme
};

void phase1(sim::Vpu& vpu, const Ctx& ctx, ElementChunk& ch);
void phase2(sim::Vpu& vpu, const Ctx& ctx, ElementChunk& ch);
void phase3(sim::Vpu& vpu, const Ctx& ctx, ElementChunk& ch);
void phase4(sim::Vpu& vpu, const Ctx& ctx, ElementChunk& ch);
void phase5(sim::Vpu& vpu, const Ctx& ctx, ElementChunk& ch);
void phase6(sim::Vpu& vpu, const Ctx& ctx, ElementChunk& ch);
void phase7(sim::Vpu& vpu, const Ctx& ctx, ElementChunk& ch);
void phase8(sim::Vpu& vpu, const Ctx& ctx, ElementChunk& ch);

namespace detail {

/// Uniform group traversal: calls `fn(off, n)` for each group
/// [off, off + n) of the chunk.  Vector subkernels strip-mine in groups of
/// min(vs, vlmax); scalar subkernels iterate the same groups element-wise,
/// so partially vectorized phases interleave exactly like strip-mined code.
template <class Fn>
void for_groups(const sim::Vpu& vpu, const ElementChunk& ch, Fn&& fn) {
  const int vs = ch.vs();
  const int gs = vpu.config().vector_enabled && vpu.vlmax() < vs
                     ? vpu.vlmax()
                     : vs;
  for (int off = 0; off < vs; off += gs) {
    fn(off, gs < vs - off ? gs : vs - off);
  }
}

/// The elements [off, off + vl) of a chunk as one vector strip.  Each op
/// is exactly one Vpu vector instruction; chunk-array addresses are
/// offset by `off`, gather bases are not.
struct VectorLanes {
  sim::Vpu& vpu;
  int off;

  using V = sim::Vec;

  V load(const double* p) const { return vpu.vload(p + off); }
  V load_i32(const std::int32_t* p) const { return vpu.vload_i32(p + off); }
  void store(double* p, const V& v) const { vpu.vstore(p + off, v); }
  V gather(const double* base, const V& idx) const {
    return vpu.vgather(base, idx);
  }
  V splat(double s) const { return vpu.vsplat(s); }
  V add(const V& a, const V& b) const { return vpu.vadd(a, b); }
  V add_s(const V& a, double s) const { return vpu.vadd_s(a, s); }
  V mul(const V& a, const V& b) const { return vpu.vmul(a, b); }
  V mul_s(const V& a, double s) const { return vpu.vmul_s(a, s); }
  V div(const V& a, const V& b) const { return vpu.vdiv(a, b); }
  V fma(const V& a, const V& b, const V& c) const { return vpu.vfma(a, b, c); }
  V fma_s(const V& a, double s, const V& c) const {
    return vpu.vfma_s(a, s, c);
  }
  V fnma(const V& a, const V& b, const V& c) const {
    return vpu.vfnma(a, b, c);
  }
  V sqrt(const V& a) const { return vpu.vsqrt(a); }
  V cbrt(const V& a) const { return vpu.vcbrt(a); }
  V imul_s(const V& a, int s) const { return vpu.vimul_s(a, s); }
  V iadd_s(const V& a, int s) const { return vpu.viadd_s(a, s); }
};

/// Element `iv` of a chunk as scalar code: each op is the scalar-core
/// twin of the VectorLanes op.  A broadcast and an index offset are free
/// (an immediate operand and an addressing mode); an index scale costs one
/// scalar ALU op.
struct ScalarLane {
  sim::Vpu& vpu;
  int iv;

  using V = double;

  V load(const double* p) const { return vpu.sload(p + iv); }
  std::int32_t load_i32(const std::int32_t* p) const {
    return vpu.sload_i32(p + iv);
  }
  void store(double* p, V v) const { vpu.sstore(p + iv, v); }
  V gather(const double* base, std::size_t idx) const {
    return vpu.sload(base + idx);
  }
  V splat(double s) const { return s; }
  V add(V a, V b) const { return vpu.sadd(a, b); }
  V add_s(V a, double s) const { return vpu.sadd(a, s); }
  V mul(V a, V b) const { return vpu.smul(a, b); }
  V mul_s(V a, double s) const { return vpu.smul(a, s); }
  V div(V a, V b) const { return vpu.sdiv(a, b); }
  V fma(V a, V b, V c) const { return vpu.sfma(a, b, c); }
  V fma_s(V a, double s, V c) const { return vpu.sfma(a, s, c); }
  V fnma(V a, V b, V c) const { return vpu.sfnma(a, b, c); }
  V sqrt(V a) const { return vpu.ssqrt(a); }
  V cbrt(V a) const { return vpu.scbrt(a); }
  std::size_t imul_s(std::int32_t a, int s) const {
    vpu.sarith(1);  // address scale
    return static_cast<std::size_t>(a) * static_cast<std::size_t>(s);
  }
  std::size_t iadd_s(std::size_t a, int s) const {
    return a + static_cast<std::size_t>(s);
  }
};

/// Issue a subkernel over the group [off, off + n): as one vector strip
/// when @p vectorize, else element by element on the scalar core.
/// @p body is called with a VectorLanes or a ScalarLane.
template <class Body>
void for_lanes(sim::Vpu& vpu, bool vectorize, int off, int n, Body&& body) {
  if (vectorize) {
    vpu.set_vl(n);
    body(VectorLanes{vpu, off});
  } else {
    for (int iv = off; iv < off + n; ++iv) body(ScalarLane{vpu, iv});
  }
}

}  // namespace detail

}  // namespace vecfd::miniapp
