// vecfd::miniapp — transient scenario library.
//
// A Scenario is everything the TimeLoop needs besides a mesh: physics,
// initial fields, velocity Dirichlet conditions (possibly time-dependent),
// the pressure pinning that makes the phase-10 Poisson solve well posed,
// and — when one exists — an analytic solution that turns the whole loop
// into a verifiable computation instead of a merely measurable one.
//
// The built-in scenarios (§ README "Scenario library"):
//
//   cavity        lid-driven cavity: no-slip walls, unit lid at z = lz,
//                 pressure pinned at node 0.  The classic enclosed-flow
//                 stress test for the projection (zero net boundary flux).
//   channel       pressure-driven channel on a 2×1×1 box: parabolic inflow
//                 at x = 0, no-slip side walls, free outflow at x = lx with
//                 the pressure increment pinned on the whole outlet plane.
//   taylor-green  decaying 2D Taylor–Green vortex extended uniformly in z,
//                 time-dependent analytic Dirichlet data on every boundary
//                 node and zero body force.  The analytic solution makes
//                 the full semi-implicit loop verifiable: L2 errors must
//                 shrink under mesh refinement (see test_time_loop).
#pragma once

#include <array>
#include <functional>
#include <string>
#include <vector>

#include "fem/mesh.h"
#include "fem/state.h"

namespace vecfd::miniapp {

struct Scenario {
  std::string name;
  std::string description;

  /// Baseline mesh for campaign runs (tests/benches may refine it).
  fem::MeshConfig mesh;
  fem::Physics physics;

  /// Initial (u, v, w, p) at a node.  Evaluated for both time levels.
  std::function<std::array<double, fem::kDofs>(const fem::Mesh&, int node)>
      initial;

  /// Velocity Dirichlet condition: returns true and fills @p val when the
  /// node is constrained at time @p t.  Only ever true on boundary nodes.
  std::function<bool(const fem::Mesh&, int node, double t,
                     std::array<double, fem::kDim>& val)>
      velocity_bc;

  /// Nodes where the pressure increment φ is pinned to zero (phase 10).
  std::function<std::vector<int>(const fem::Mesh&)> pressure_pins;

  /// Analytic (u, v, w, p) at time @p t, or an empty function when the
  /// scenario has no closed-form solution.
  std::function<std::array<double, fem::kDofs>(const fem::Mesh&, int node,
                                               double t)>
      analytic;
};

Scenario scenario_cavity();
Scenario scenario_channel();
Scenario scenario_taylor_green();

/// All built-in scenarios, campaign order: cavity, channel, taylor-green.
std::vector<Scenario> all_scenarios();

/// Look up a scenario by name; throws std::invalid_argument for unknown
/// names (the CLI turns that into the exit-2 contract).
Scenario scenario_by_name(const std::string& name);

}  // namespace vecfd::miniapp
