// vecfd::sim — lane types: one kernel body, issued as vector or scalar code.
//
// A kernel written once as `template <class L> body(L l, ...)` runs in two
// forms.  With a VectorLanes it issues one vector strip: each op is exactly
// one Vpu vector instruction (vload, vfma_s, vgather ...) over the strip
// starting at element `off`.  With a ScalarLane it issues one element:
// each op is the scalar-core twin (sload, sfma ...) at element `iv`.  Both
// forms compute identical values.  The assembly phases (miniapp/phases.h,
// `for_lanes`) and the solve kernels (solver/vkernels.cpp, `for_columns`)
// decide which form runs; the body never does.
//
// Named-load rule: in a new body, bind every load to a named local before
// combining it with another load.  C++ leaves the evaluation order of
// function arguments unspecified, and GCC evaluates them right to left, so
// `l.mul(l.load(a), l.load(b))` issues b's load first.  The issue order of
// memory ops is part of the modelled stream: the memory model numbers lines
// in first-touch order and the caches are LRU, so swapped loads move the
// miss and cycle counters that the bitwise counter goldens pin.  A body
// already pinned in nested form (some assembly bodies are) keeps its shape.
#pragma once

#include <cstddef>
#include <cstdint>

#include "sim/vpu.h"

namespace vecfd::sim {

/// The elements [off, off + vl) as one vector strip (vl is the Vpu's
/// current vector length).  Array addresses are offset by `off`, gather
/// bases are not.
struct VectorLanes {
  Vpu& vpu;
  int off;

  using V = Vec;

  V load(const double* p) const { return vpu.vload(p + off); }
  V load_i32(const std::int32_t* p) const { return vpu.vload_i32(p + off); }
  /// Elements off, off + 1, ... of the sequence base[0], base[stride], ...
  V load_strided(const double* base, std::ptrdiff_t stride) const {
    return vpu.vload_strided(base + stride * off, stride);
  }
  void store(double* p, const V& v) const { vpu.vstore(p + off, v); }
  V gather(const double* base, const V& idx) const {
    return vpu.vgather(base, idx);
  }
  V splat(double s) const { return vpu.vsplat(s); }
  V add(const V& a, const V& b) const { return vpu.vadd(a, b); }
  V add_s(const V& a, double s) const { return vpu.vadd_s(a, s); }
  V sub(const V& a, const V& b) const { return vpu.vsub(a, b); }
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
  /// s + Σ a·b over the strip: a product, a reduction and a scalar add.
  double dot_acc(double s, const V& a, const V& b) const {
    return vpu.sadd(s, vpu.vredsum(vpu.vmul(a, b)));
  }
};

/// Element `iv` as scalar code: each op is the scalar-core twin of the
/// VectorLanes op.  A broadcast and an index offset are free (an immediate
/// operand and an addressing mode); an index scale costs one scalar ALU op.
struct ScalarLane {
  Vpu& vpu;
  int iv;

  using V = double;

  V load(const double* p) const { return vpu.sload(p + iv); }
  std::int32_t load_i32(const std::int32_t* p) const {
    return vpu.sload_i32(p + iv);
  }
  V load_strided(const double* base, std::ptrdiff_t stride) const {
    return vpu.sload(base + stride * iv);
  }
  void store(double* p, V v) const { vpu.sstore(p + iv, v); }
  V gather(const double* base, std::size_t idx) const {
    return vpu.sload(base + idx);
  }
  V splat(double s) const { return s; }
  V add(V a, V b) const { return vpu.sadd(a, b); }
  V add_s(V a, double s) const { return vpu.sadd(a, s); }
  V sub(V a, V b) const { return vpu.ssub(a, b); }
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
  /// s + a·b as one fused multiply-add.
  double dot_acc(double s, V a, V b) const { return vpu.sfma(a, b, s); }
};

}  // namespace vecfd::sim
