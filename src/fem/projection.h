// vecfd::fem — pressure-projection operators for the transient loop.
//
// The semi-implicit time step of the mini-app is a classic incremental
// pressure-projection (Chorin/Temam with pressure increment):
//
//   1. momentum:    K u* = (ρ/Δt)·M u^n + F + G p^n     (phases 1–9)
//   2. pressure:    L φ  = −(ρ/Δt)·D u*                  (phase 10, SPD CG)
//   3. correction:  u^{n+1} = u* − (Δt/ρ)·M_L⁻¹ Ĝ φ,  p^{n+1} = p^n + φ
//                                                        (phase 11, BLAS-1)
//
// This module assembles the host-side operators of steps 2–3 on the scalar
// pressure space (one dof per node, the mesh's node adjacency pattern):
//
//   L    stiffness (Laplacian)  L[a][b]  = ∫ ∇N_a·∇N_b          (SPD)
//   M_L  lumped mass            M_L[a]   = ∫ N_a
//   Mdt  dtfac-weighted mass    Mdt[a][b] = Σ_e dtfac_e ∫ N_a N_b
//   D    weak divergence        (D u)_a  = ∫ N_a ∇·u
//   Ĝ    weak gradient          (Ĝ p)_{a,d} = ∫ N_a ∂p/∂x_d
//
// Like the ELL mirror of solver/vkernels.h, operator assembly here is
// host-side and uncounted: L / M_L / Mdt are built once per campaign and
// amortize over every time step, and the per-step D/Ĝ evaluations feed the
// instrumented phase-10/11 kernels that the co-design analysis targets.
// The geometry pipeline (Jacobian → gpcar → gpvol) is the one of
// fem/element_geometry.h, so all operators see identical element
// geometry.  See DESIGN.md §4.
#pragma once

#include <span>
#include <vector>

#include "fem/element.h"
#include "fem/mesh.h"
#include "fem/shape.h"
#include "fem/state.h"
#include "solver/csr.h"

namespace vecfd::fem {

/// Stiffness matrix L[a][b] = Σ_e Σ_g ∇N_a·∇N_b gpvol on the node-adjacency
/// pattern — the SPD pressure-Poisson operator of phase 10.
solver::CsrMatrix assemble_pressure_laplacian(const Mesh& mesh,
                                              const ShapeTable& shape);

/// dtfac-weighted consistent mass Mdt[a][b] = Σ_e dtfac_e Σ_g N_a N_b gpvol
/// with dtfac_e = element_dt_factor(phys, material_e) — the time-derivative
/// block of the momentum operator K, split out so the transient loop can
/// form the backward-Euler RHS b = rhs_assembled + (K − Mdt)·u^n.
solver::CsrMatrix assemble_dt_mass(const Mesh& mesh, const Physics& phys,
                                   const ShapeTable& shape);

/// Lumped mass M_L[a] = Σ_e Σ_g N_a gpvol (row-sum lumping; every entry is
/// strictly positive on a valid mesh).
std::vector<double> assemble_lumped_mass(const Mesh& mesh,
                                         const ShapeTable& shape);

/// Weak divergence (D u)_a = Σ_e Σ_g N_a (∇·u)(g) gpvol of a nodal velocity
/// field `vel` laid out [node·kDim].  Reuses @p out's storage across
/// repeated calls: the TimeLoop evaluates D every step and feeds `out` to
/// instrumented kernels, so its memory lines must stay put (see
/// mem/memory_hierarchy.h on first-touch determinism).
void assemble_weak_divergence_into(const Mesh& mesh, const ShapeTable& shape,
                                   std::span<const double> vel,
                                   std::vector<double>& out);

/// Weak gradient (Ĝ p)_{a,d} = Σ_e Σ_g N_a (∂p/∂x_d)(g) gpvol of a nodal
/// scalar field `p` [node]; laid out [node·kDim].  Same reuse contract as
/// the divergence.
void assemble_weak_gradient_into(const Mesh& mesh, const ShapeTable& shape,
                                 std::span<const double> p,
                                 std::vector<double>& out);

/// Impose homogeneous Dirichlet rows symmetrically: for every node r in
/// @p nodes, row r and column r are zeroed and the diagonal set to 1, so an
/// SPD matrix stays SPD (the pinned-node regularization of the pure-Neumann
/// Poisson problem, or a Dirichlet outlet plane).  Callers zero the matching
/// RHS entries.  @p nodes must be valid row indices.
void pin_dirichlet(solver::CsrMatrix& a, std::span<const int> nodes);

}  // namespace vecfd::fem
