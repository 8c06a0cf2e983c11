// vecfd::miniapp — the compiled shape of the mini-app.
//
// Each phase is split into the subkernels (loop nests) the auto-vectorizer
// analyzes independently.  `build_plan` describes every subkernel's source
// shape as a compiler::LoopInfo — which depends on the optimization level,
// because VEC2/IVEC2/VEC1 are *source* transformations — and records the
// model compiler's Decision for it.  The phase kernels then issue each
// subkernel's single body as vector strips or as scalar lanes accordingly
// (detail::for_lanes in phases.h), which is exactly the contract between
// the application and the compiler that the paper's co-design loop tunes.
#pragma once

#include <string>
#include <vector>

#include "compiler/vectorization_model.h"
#include "miniapp/config.h"

namespace vecfd::miniapp {

/// Loop-nest shape of the phase-2 gather, selected by optimization level.
enum class Phase2Shape {
  kScalarOuterIvect,  ///< vanilla: runtime bound, ivect outer → scalar
  kDofInner,          ///< VEC2: constant bound, dof loop (trip 4) innermost
  kIvectInner,        ///< IVEC2: interchange, ivect (trip VS) innermost
};

struct PhasePlan {
  // phase 1
  bool p1_split = false;            ///< VEC1 fission applied?
  compiler::Decision p1_work_b;     ///< elcod gather loop

  // phase 2
  Phase2Shape p2_shape = Phase2Shape::kScalarOuterIvect;
  compiler::Decision p2;

  // phase 3
  compiler::Decision p3_jac, p3_inv, p3_car;
  // phase 4
  compiler::Decision p4_vel, p4_gve, p4_pre;
  // phase 5
  compiler::Decision p5_tau, p5_mass;
  // phase 6
  compiler::Decision p6_dw, p6_cab, p6_apply;
  // phase 7
  compiler::Decision p7_blk, p7_apply;
  // phase 8
  compiler::Decision p8;

  /// All (id, decision) pairs for reporting and tests.
  std::vector<std::pair<std::string, compiler::Decision>> all() const;
};

/// The LoopInfos describing the mini-app's source at a given optimization
/// level and VECTOR_SIZE (exposed separately so tests and the Table-4 bench
/// can inspect the compiler model's inputs).
std::vector<compiler::LoopInfo> loop_infos(const MiniAppConfig& cfg);

/// Run the vectorization model over the mini-app's loops.
PhasePlan build_plan(const sim::MachineConfig& machine,
                     const MiniAppConfig& cfg);

}  // namespace vecfd::miniapp
