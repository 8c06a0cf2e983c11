// vecfd::miniapp — the eight instrumented phases of the assembly mini-app.
//
// Each phase mirrors its description in §2.3 of the paper and is written
// against the sim::Vpu instruction API.  Every subkernel has ONE body,
// templated on a lane type of sim/lanes.h: `for_lanes` issues it either as
// a vector strip (sim::VectorLanes: vload / vfma_s / vgather ...) or once
// per element as scalar code (sim::ScalarLane: sload / sfma ...).  Which
// form runs is decided by the PhasePlan (the modelled compiler), so a
// single source of truth covers the scalar baseline, the vanilla
// auto-vectorized build and the VEC2 / IVEC2 / VEC1 source
// transformations.  Both forms compute identical values, which the test
// suite checks against the reference assembly test oracle
// (tests/support/reference_assembly.h).
#pragma once

#include <vector>

#include "fem/mesh.h"
#include "fem/scheme.h"
#include "fem/shape.h"
#include "fem/state.h"
#include "miniapp/chunk.h"
#include "miniapp/config.h"
#include "miniapp/plan.h"
#include "sim/lanes.h"
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

/// Issue a subkernel over the group [off, off + n): as one vector strip
/// when @p vectorize, else element by element on the scalar core.
/// @p body is called with a VectorLanes or a ScalarLane.
template <class Body>
void for_lanes(sim::Vpu& vpu, bool vectorize, int off, int n, Body&& body) {
  if (vectorize) {
    vpu.set_vl(n);
    body(sim::VectorLanes{vpu, off});
  } else {
    for (int iv = off; iv < off + n; ++iv) body(sim::ScalarLane{vpu, iv});
  }
}

}  // namespace detail

}  // namespace vecfd::miniapp
