// Property tests on the reference discrete operators across a sweep of
// physical parameters: conservation (zero row sums), symmetry, scaling
// linearity — the invariants any Navier–Stokes assembly must satisfy.
#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "support/reference_assembly.h"

namespace {

using namespace vecfd::fem;

class PhysicsSweep
    : public ::testing::TestWithParam<std::tuple<double, double, double>> {
 protected:
  Physics physics() const {
    Physics p;
    p.viscosity = std::get<0>(GetParam());
    p.dt = std::get<1>(GetParam());
    p.density = std::get<2>(GetParam());
    return p;
  }
};

TEST_P(PhysicsSweep, SemiImplicitBlockRowSumsEqualMassTerm) {
  // C and V rows sum to zero (Σ_b ∇N_b = 0), so Σ_b K[a][b] must equal
  // dtfac·Σ_b M[a][b] = dtfac·∫N_a — strictly positive.
  const Mesh mesh({.nx = 2, .ny = 2, .nz = 2});
  const State state(mesh, physics());
  const ShapeTable shape;
  ElementSystem es;
  for (int e = 0; e < mesh.num_elements(); ++e) {
    assemble_element(mesh, state, shape, e, Scheme::kSemiImplicit, es);
    const double dtfac =
        element_dt_factor(state.physics(), mesh.material(e));
    for (int a = 0; a < kNodes; ++a) {
      double krow = 0.0;
      for (int b = 0; b < kNodes; ++b) krow += es.block_at(a, b);
      EXPECT_GT(krow, 0.0);
      // ∫N_a over the element = vol/8 for the (mildly distorted) hex
      const double vol_a = krow / dtfac;
      EXPECT_NEAR(vol_a, 0.125 * 0.125, 0.25 * 0.125 * 0.125)
          << "e=" << e << " a=" << a;
    }
  }
}

TEST_P(PhysicsSweep, RhsIsLinearInBodyForce) {
  const Mesh mesh({.nx = 2, .ny = 2, .nz = 2});
  Physics p0 = physics();
  p0.force[0] = 0.3;
  p0.force[1] = -0.1;
  p0.force[2] = 0.7;
  Physics p2 = p0;
  p2.force[0] *= 2.0;
  p2.force[1] *= 2.0;
  p2.force[2] *= 2.0;
  // zero fields isolate the force term
  State s0(mesh, p0);
  State s2(mesh, p2);
  for (State* s : {&s0, &s2}) {
    std::fill(s->unknowns().begin(), s->unknowns().end(), 0.0);
    std::fill(s->unknowns_old().begin(), s->unknowns_old().end(), 0.0);
  }
  const ShapeTable shape;
  const auto r0 = assemble_global(mesh, s0, shape, Scheme::kExplicit);
  const auto r2 = assemble_global(mesh, s2, shape, Scheme::kExplicit);
  for (std::size_t i = 0; i < r0.rhs.size(); ++i) {
    EXPECT_NEAR(r2.rhs[i], 2.0 * r0.rhs[i],
                1e-12 * std::max(1.0, std::fabs(r0.rhs[i])));
  }
}

TEST_P(PhysicsSweep, ViscousContributionScalesWithViscosity) {
  // with zero force/old-velocity/pressure and a pure velocity field the
  // residual is -(C+V)u; C is ρ-weighted, V is μ-weighted.  Doubling μ at
  // ρ → 0 doubles the residual.
  const Mesh mesh({.nx = 2, .ny = 2, .nz = 2, .distortion = 0.0});
  Physics pa = physics();
  pa.density = 1e-9;  // suppress convection and the dt term
  pa.dt = 1e9;
  pa.force[0] = pa.force[1] = pa.force[2] = 0.0;
  Physics pb = pa;
  pb.viscosity = 2.0 * pa.viscosity;
  if (pa.viscosity == 0.0) GTEST_SKIP() << "needs nonzero viscosity";

  auto make_state = [&](const Physics& p) {
    State s(mesh, p);
    for (int n = 0; n < s.num_nodes(); ++n) {
      // zero pressure and old velocity, keep the analytic velocity
      s.unknowns()[static_cast<std::size_t>(n) * kDofs + kDim] = 0.0;
      for (int d = 0; d < kDim; ++d) {
        s.unknowns_old()[static_cast<std::size_t>(n) * kDofs + d] = 0.0;
      }
    }
    return s;
  };
  const State sa = make_state(pa);
  const State sb = make_state(pb);
  const ShapeTable shape;
  const auto ra = assemble_global(mesh, sa, shape, Scheme::kExplicit);
  const auto rb = assemble_global(mesh, sb, shape, Scheme::kExplicit);
  double num = 0.0;
  double den = 0.0;
  for (std::size_t i = 0; i < ra.rhs.size(); ++i) {
    num += rb.rhs[i] * ra.rhs[i];
    den += ra.rhs[i] * ra.rhs[i];
  }
  ASSERT_GT(den, 0.0);
  EXPECT_NEAR(num / den, 2.0, 1e-6);  // rb ≈ 2·ra
}

INSTANTIATE_TEST_SUITE_P(
    Params, PhysicsSweep,
    ::testing::Combine(::testing::Values(0.001, 0.01, 0.1),  // viscosity
                       ::testing::Values(0.01, 0.1),         // dt
                       ::testing::Values(0.5, 1.0, 2.0)),    // density
    // `param_info`, not `info`: the macro splices this lambda into a gtest
    // function whose parameter is already named `info` (-Wshadow).
    [](const auto& param_info) {
      auto tag = [](double v) {
        std::string s = std::to_string(v);
        for (char& c : s) {
          if (c == '.') c = 'p';
        }
        return s.substr(0, 6);
      };
      return "mu" + tag(std::get<0>(param_info.param)) + "_dt" +
             tag(std::get<1>(param_info.param)) + "_rho" +
             tag(std::get<2>(param_info.param));
    });

TEST(OperatorProperties, UniformFlowHasNoViscousResidual) {
  // a constant velocity field has zero gradient: V·u = 0 and the
  // convective derivative vanishes, so with f = 0, u_old = u, p = 0 the
  // residual reduces to the dt term ∫N ρ/Δt u.
  const Mesh mesh({.nx = 3, .ny = 3, .nz = 3, .distortion = 0.1});
  Physics phys;
  phys.force[2] = 0.0;
  State state(mesh, phys);
  for (int n = 0; n < state.num_nodes(); ++n) {
    double* u = &state.unknowns()[static_cast<std::size_t>(n) * kDofs];
    u[0] = 0.4;
    u[1] = -0.2;
    u[2] = 0.1;
    u[3] = 0.0;
    double* uo = &state.unknowns_old()[static_cast<std::size_t>(n) * kDofs];
    uo[0] = 0.4;
    uo[1] = -0.2;
    uo[2] = 0.1;
  }
  const ShapeTable shape;
  const auto sys = assemble_global(mesh, state, shape, Scheme::kExplicit);
  // residual = M(ρ/Δt)(u_old − u) per row... with u_old = u the convective
  // and viscous parts vanish and the rhs is +∫N ρ/Δt u − (C+V)u = ∫N ρ/Δt u
  // componentwise proportional to (0.4, −0.2, 0.1)
  double dir[3] = {0.0, 0.0, 0.0};
  for (int n = 0; n < mesh.num_nodes(); ++n) {
    for (int d = 0; d < kDim; ++d) {
      dir[d] += sys.rhs[static_cast<std::size_t>(n) * kDim + d];
    }
  }
  EXPECT_NEAR(dir[1] / dir[0], -0.5, 1e-9);
  EXPECT_NEAR(dir[2] / dir[0], 0.25, 1e-9);
}

TEST(OperatorProperties, RefiningTheMeshPreservesForceTotal) {
  for (int n : {2, 4}) {
    const Mesh mesh({.nx = n, .ny = n, .nz = n, .distortion = 0.0});
    Physics phys;
    phys.force[0] = 1.0;
    phys.force[1] = 0.0;
    phys.force[2] = 0.0;
    State state(mesh, phys);
    std::fill(state.unknowns().begin(), state.unknowns().end(), 0.0);
    std::fill(state.unknowns_old().begin(), state.unknowns_old().end(), 0.0);
    const ShapeTable shape;
    const auto sys = assemble_global(mesh, state, shape, Scheme::kExplicit);
    double total = 0.0;
    for (int node = 0; node < mesh.num_nodes(); ++node) {
      total += sys.rhs[static_cast<std::size_t>(node) * kDim];
    }
    EXPECT_NEAR(total, 1.0, 1e-10) << "n=" << n;  // ρ·f·|Ω|
  }
}

}  // namespace
