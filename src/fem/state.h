// vecfd::fem — nodal flow state and physical parameters.
//
// Unknowns are stored node-major with the four degrees of freedom
// (u, v, w, p) contiguous per node.  This AoS layout matters to the paper's
// story: it is what makes the compiler's VEC2 attempt vectorize the short
// per-node dof loop (AVL = 4) instead of the long element dimension.
#pragma once

#include <span>
#include <vector>

#include "fem/element.h"
#include "fem/mesh.h"

namespace vecfd::fem {

struct Physics {
  double density = 1.0;    ///< ρ
  double viscosity = 0.01; ///< μ
  double dt = 0.05;        ///< time-step size
  double force[kDim] = {0.0, 0.0, -0.1};  ///< body force (e.g. gravity)
};

class State {
 public:
  /// Initialize with a smooth deterministic analytic field (a Taylor–Green
  /// style vortex plus a pressure wave); `old` holds the previous time level.
  explicit State(const Mesh& mesh, Physics phys = {});

  int num_nodes() const { return num_nodes_; }
  const Physics& physics() const { return phys_; }
  Physics& physics() { return phys_; }

  /// Current unknowns, [node][kDofs] = (u, v, w, p).
  std::span<const double> unknowns() const { return unk_; }
  std::span<double> unknowns() { return unk_; }
  /// Previous-time-level unknowns, same layout.
  std::span<const double> unknowns_old() const { return unk_old_; }
  std::span<double> unknowns_old() { return unk_old_; }

  const double* unknowns_data() const { return unk_.data(); }
  const double* unknowns_old_data() const { return unk_old_.data(); }

  double velocity(int node, int dim) const { return unk_[node * kDofs + dim]; }
  double pressure(int node) const { return unk_[node * kDofs + kDim]; }

  /// Advance: current becomes old; @p new_velocity ([node][kDim]) becomes
  /// current velocity (pressure is carried over).
  void push_time_level(std::span<const double> new_velocity);

 private:
  int num_nodes_ = 0;
  Physics phys_;
  std::vector<double> unk_;      // [node][4]
  std::vector<double> unk_old_;  // [node][4]
};

}  // namespace vecfd::fem
