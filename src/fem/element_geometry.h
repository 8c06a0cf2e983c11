// vecfd::fem — per-element geometry shared by every assembled operator.
//
// The phase-3 geometry pipeline (gather coords → Jacobian → cofactor
// inverse → gpcar/gpvol) and phase 1's ρ/Δt factor, evaluated in exactly
// the floating-point order of the phase kernels.  The projection
// operators (fem/projection.h) and the reference assembly test oracle
// (tests/support/reference_assembly.h) both build on it, so every
// operator sees bit-identical element geometry.
#pragma once

#include <cstdint>

#include "fem/element.h"
#include "fem/mesh.h"
#include "fem/shape.h"
#include "fem/state.h"

namespace vecfd::fem {

/// Per-element geometry at the Gauss points: Cartesian shape derivatives
/// and weighted Jacobian determinants (the phase-3 output).
struct ElementGeometry {
  /// gpcar[g][d][a] = ∂N_a/∂x_d at Gauss point g.
  double gpcar[kGauss][kDim][kNodes];
  /// gpvol[g] = w_g·det J at Gauss point g.
  double gpvol[kGauss];
};

/// Evaluate the geometry pipeline (gather coords → Jacobian → cofactor
/// inverse → gpcar/gpvol) for element @p elem.
void element_geometry(const Mesh& mesh, const ShapeTable& shape, int elem,
                      ElementGeometry& out);

/// The per-element ρ/Δt factor including the material adjustment performed
/// by phase-1 "work A" (shared here so reference and mini-app agree).
double element_dt_factor(const Physics& phys, std::int32_t material);

}  // namespace vecfd::fem
