// Tests for the golden reference assembly: geometric sanity (Jacobians,
// volumes), physical sanity (zero-flow limits), and global assembly
// structure.
#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "support/reference_assembly.h"

namespace {

using vecfd::fem::assemble_element;
using vecfd::fem::assemble_global;
using vecfd::fem::element_dt_factor;
using vecfd::fem::ElementSystem;
using vecfd::fem::kDim;
using vecfd::fem::kNodes;
using vecfd::fem::Mesh;
using vecfd::fem::Physics;
using vecfd::fem::Scheme;
using vecfd::fem::ShapeTable;
using vecfd::fem::State;

struct Fixture {
  Fixture() : mesh({.nx = 3, .ny = 3, .nz = 3}), state(mesh), shape() {}
  Mesh mesh;
  State state;
  ShapeTable shape;
};

TEST(ReferenceAssembly, ElementVolumeFromGpvol) {
  // Σ_g gpvol = element volume; with an undistorted unit mesh each element
  // has volume (1/nx)³.  We recover gpvol indirectly via the mass-matrix
  // row sums of the semi-implicit block at ρ/Δt dominance.
  const Mesh mesh({.nx = 2, .ny = 2, .nz = 2, .distortion = 0.0});
  Physics phys;
  phys.viscosity = 0.0;
  phys.dt = 1.0;
  phys.density = 1.0;
  // zero velocity field → no convection; block = M·(ρ/Δt)
  State state(mesh, phys);
  std::fill(state.unknowns().begin(), state.unknowns().end(), 0.0);
  std::fill(state.unknowns_old().begin(), state.unknowns_old().end(), 0.0);
  const ShapeTable shape;
  ElementSystem es;
  assemble_element(mesh, state, shape, 0, Scheme::kSemiImplicit, es);
  double total = 0.0;
  for (double v : es.block) total += v;
  // Σ_ab M_ab = ∫ 1 = volume = 0.125
  EXPECT_NEAR(total, 0.125, 1e-12);
}

TEST(ReferenceAssembly, ZeroFieldGivesPureForceResidual) {
  const Mesh mesh({.nx = 2, .ny = 2, .nz = 2, .distortion = 0.0});
  Physics phys;
  phys.force[0] = 0.0;
  phys.force[1] = 0.0;
  phys.force[2] = -2.0;
  State state(mesh, phys);
  std::fill(state.unknowns().begin(), state.unknowns().end(), 0.0);
  std::fill(state.unknowns_old().begin(), state.unknowns_old().end(), 0.0);
  const ShapeTable shape;
  ElementSystem es;
  assemble_element(mesh, state, shape, 0, Scheme::kExplicit, es);
  // elrhs[d][a] = Σ_g N_a ρ f_d gpvol: x/y components zero, z negative
  for (int a = 0; a < kNodes; ++a) {
    EXPECT_NEAR(es.rhs_at(0, a), 0.0, 1e-14);
    EXPECT_NEAR(es.rhs_at(1, a), 0.0, 1e-14);
    EXPECT_LT(es.rhs_at(2, a), 0.0);
  }
  // total z-residual = ρ f_z · volume
  double tot = 0.0;
  for (int a = 0; a < kNodes; ++a) tot += es.rhs_at(2, a);
  EXPECT_NEAR(tot, -2.0 * 0.125, 1e-12);
}

TEST(ReferenceAssembly, ViscousBlockSymmetricPositive) {
  Fixture f;
  ElementSystem es;
  assemble_element(f.mesh, f.state, f.shape, 5, Scheme::kSemiImplicit, es);
  // The full block is M/dt + C + V; symmetry holds for M and V, so check
  // the symmetric part dominates the skew part (C is the only skew source).
  double sym = 0.0;
  double skew = 0.0;
  for (int a = 0; a < kNodes; ++a) {
    for (int b = 0; b < kNodes; ++b) {
      const double kab = es.block_at(a, b);
      const double kba = es.block_at(b, a);
      sym += std::fabs(0.5 * (kab + kba));
      skew += std::fabs(0.5 * (kab - kba));
    }
  }
  EXPECT_GT(sym, skew);
}

TEST(ReferenceAssembly, DtFactorMaterialBands) {
  Physics phys;
  phys.density = 2.0;
  phys.dt = 0.5;
  EXPECT_DOUBLE_EQ(element_dt_factor(phys, 0), 4.0);
  EXPECT_DOUBLE_EQ(element_dt_factor(phys, 1), 1.02 * 4.0);
}

TEST(ReferenceAssembly, GlobalRhsIsSumOfElementContributions) {
  Fixture f;
  const auto sys = assemble_global(f.mesh, f.state, f.shape,
                                   Scheme::kExplicit);
  ASSERT_EQ(sys.rhs.size(),
            static_cast<std::size_t>(f.mesh.num_nodes()) * kDim);
  EXPECT_FALSE(sys.has_matrix);

  // recompute by hand
  std::vector<double> expect(sys.rhs.size(), 0.0);
  ElementSystem es;
  for (int e = 0; e < f.mesh.num_elements(); ++e) {
    assemble_element(f.mesh, f.state, f.shape, e, Scheme::kExplicit, es);
    const auto ln = f.mesh.element(e);
    for (int a = 0; a < kNodes; ++a) {
      for (int d = 0; d < kDim; ++d) {
        expect[static_cast<std::size_t>(ln[a]) * kDim + d] +=
            es.rhs[d * kNodes + a];
      }
    }
  }
  for (std::size_t i = 0; i < expect.size(); ++i) {
    EXPECT_DOUBLE_EQ(sys.rhs[i], expect[i]);
  }
}

TEST(ReferenceAssembly, SemiImplicitMatrixRowsMatchAdjacency) {
  Fixture f;
  const auto sys = assemble_global(f.mesh, f.state, f.shape,
                                   Scheme::kSemiImplicit);
  ASSERT_TRUE(sys.has_matrix);
  EXPECT_EQ(sys.matrix.rows(), f.mesh.num_nodes());
  // a corner node has 8 neighbours (2x2x2 including itself)
  EXPECT_EQ(sys.matrix.row_cols(0).size(), 8u);
  // diagonal entries positive (mass + viscosity dominate)
  for (int r = 0; r < sys.matrix.rows(); ++r) {
    EXPECT_GT(sys.matrix.at(r, r), 0.0) << "row " << r;
  }
}

TEST(ReferenceAssembly, DistortionChangesJacobiansButNotTotals) {
  // The total body-force residual is mesh-volume dependent only.
  Physics phys;
  phys.force[0] = 1.0;
  phys.force[1] = 0.0;
  phys.force[2] = 0.0;
  const ShapeTable shape;
  double totals[2];
  int idx = 0;
  for (double dist : {0.0, 0.1}) {
    const Mesh mesh({.nx = 3, .ny = 3, .nz = 3, .distortion = dist});
    State state(mesh, phys);
    std::fill(state.unknowns().begin(), state.unknowns().end(), 0.0);
    std::fill(state.unknowns_old().begin(), state.unknowns_old().end(), 0.0);
    const auto sys = assemble_global(mesh, state, shape, Scheme::kExplicit);
    double t = 0.0;
    for (int n = 0; n < mesh.num_nodes(); ++n) t += sys.rhs[n * kDim];
    totals[idx++] = t;
  }
  EXPECT_NEAR(totals[0], totals[1], 1e-10);  // both = ρ·f·|Ω| = 1
  EXPECT_NEAR(totals[0], 1.0, 1e-10);
}

TEST(ReferenceAssembly, TimeTermPullsTowardOldVelocity) {
  // With only the dt term active (no force, no viscosity, old velocity u⁰,
  // current velocity 0): residual ≈ ∫ N ρ/Δt u⁰ > 0 along u⁰'s direction.
  const Mesh mesh({.nx = 2, .ny = 2, .nz = 2, .distortion = 0.0});
  Physics phys;
  phys.viscosity = 0.0;
  phys.force[2] = 0.0;
  State state(mesh, phys);
  std::fill(state.unknowns().begin(), state.unknowns().end(), 0.0);
  for (int n = 0; n < state.num_nodes(); ++n) {
    state.unknowns_old()[static_cast<std::size_t>(n) * 4 + 0] = 1.0;  // u=1
    state.unknowns_old()[static_cast<std::size_t>(n) * 4 + 1] = 0.0;
    state.unknowns_old()[static_cast<std::size_t>(n) * 4 + 2] = 0.0;
  }
  const ShapeTable shape;
  const auto sys = assemble_global(mesh, state, shape, Scheme::kExplicit);
  double tx = 0.0;
  for (int n = 0; n < mesh.num_nodes(); ++n) tx += sys.rhs[n * kDim];
  // ∫ ρ/Δt·1 over unit cube (materials alter dt factor slightly upward)
  EXPECT_GT(tx, 0.99 * phys.density / phys.dt);
  EXPECT_LT(tx, 1.03 * phys.density / phys.dt);
}

}  // namespace
