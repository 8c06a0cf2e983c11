// Test oracle: golden scalar Navier–Stokes element assembly.
//
// This is the correctness oracle for every mini-app variant: a plain,
// unvectorized, simulator-free implementation of exactly the computation
// the 8 phases perform (gather → Jacobian → Gauss-point arrays → time
// integration → convection → viscosity → scatter).  The floating-point
// evaluation order matches the phase kernels term by term, so agreement is
// expected at (near) machine precision for every VECTOR_SIZE and
// optimization level.
//
// Discretization: Q1 hexahedra, 2×2×2 Gauss rule, SUPG-stabilized
// convection, Laplacian viscous form.  The momentum operator's
// dimension-block structure is diagonal (one shared pnode×pnode block),
// see DESIGN.md §2 for the relation to Alya's storage.
#pragma once

#include <array>
#include <vector>

#include "fem/element.h"
#include "fem/element_geometry.h"
#include "fem/mesh.h"
#include "fem/scheme.h"
#include "fem/shape.h"
#include "fem/state.h"
#include "solver/csr.h"

namespace vecfd::fem {

/// Per-element assembly output.
struct ElementSystem {
  /// Momentum residual RHS, laid out [d][a] (dimension-major).
  std::array<double, kDim * kNodes> rhs{};
  /// Combined semi-implicit block K = (ρ/Δt)·M + C + V, laid out [a][b].
  /// Only filled for Scheme::kSemiImplicit.
  std::array<double, kNodes * kNodes> block{};

  double rhs_at(int d, int a) const { return rhs[d * kNodes + a]; }
  double block_at(int a, int b) const { return block[a * kNodes + b]; }
};

/// Assemble one element.  @p elem must be a valid element id.
void assemble_element(const Mesh& mesh, const State& state,
                      const ShapeTable& shape, int elem, Scheme scheme,
                      ElementSystem& out);

/// Fully assembled global system.
struct GlobalSystem {
  std::vector<double> rhs;    ///< [node·kDim], dimension-major per node
  solver::CsrMatrix matrix;   ///< scalar momentum operator (semi-implicit)
  bool has_matrix = false;
};

/// Assemble the whole mesh in ascending element order (the order the
/// chunked mini-app also uses, so floating-point accumulation matches).
GlobalSystem assemble_global(const Mesh& mesh, const State& state,
                             const ShapeTable& shape, Scheme scheme);

}  // namespace vecfd::fem
