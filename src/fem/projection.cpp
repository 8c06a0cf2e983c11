#include "fem/projection.h"

#include <stdexcept>

#include "fem/element_geometry.h"

namespace vecfd::fem {

solver::CsrMatrix assemble_pressure_laplacian(const Mesh& mesh,
                                              const ShapeTable& shape) {
  solver::CsrMatrix l(mesh.node_adjacency());
  ElementGeometry geo;
  for (int e = 0; e < mesh.num_elements(); ++e) {
    element_geometry(mesh, shape, e, geo);
    const auto ln = mesh.element(e);
    for (int a = 0; a < kNodes; ++a) {
      for (int b = 0; b < kNodes; ++b) {
        double acc = 0.0;
        for (int g = 0; g < kGauss; ++g) {
          double q = geo.gpcar[g][0][a] * geo.gpcar[g][0][b];
          q = geo.gpcar[g][1][a] * geo.gpcar[g][1][b] + q;
          q = geo.gpcar[g][2][a] * geo.gpcar[g][2][b] + q;
          acc = geo.gpvol[g] * q + acc;
        }
        l.add(ln[a], ln[b], acc);
      }
    }
  }
  return l;
}

solver::CsrMatrix assemble_dt_mass(const Mesh& mesh, const Physics& phys,
                                   const ShapeTable& shape) {
  solver::CsrMatrix m(mesh.node_adjacency());
  ElementGeometry geo;
  for (int e = 0; e < mesh.num_elements(); ++e) {
    element_geometry(mesh, shape, e, geo);
    const double dtfac = element_dt_factor(phys, mesh.material(e));
    const auto ln = mesh.element(e);
    for (int a = 0; a < kNodes; ++a) {
      for (int b = 0; b < kNodes; ++b) {
        double acc = 0.0;
        for (int g = 0; g < kGauss; ++g) {
          const double nn = shape.n(g, a) * shape.n(g, b);
          acc = geo.gpvol[g] * nn + acc;
        }
        m.add(ln[a], ln[b], dtfac * acc);
      }
    }
  }
  return m;
}

std::vector<double> assemble_lumped_mass(const Mesh& mesh,
                                         const ShapeTable& shape) {
  std::vector<double> ml(static_cast<std::size_t>(mesh.num_nodes()), 0.0);
  ElementGeometry geo;
  for (int e = 0; e < mesh.num_elements(); ++e) {
    element_geometry(mesh, shape, e, geo);
    const auto ln = mesh.element(e);
    for (int a = 0; a < kNodes; ++a) {
      double acc = 0.0;
      for (int g = 0; g < kGauss; ++g) {
        acc = geo.gpvol[g] * shape.n(g, a) + acc;
      }
      ml[static_cast<std::size_t>(ln[a])] += acc;
    }
  }
  return ml;
}

void assemble_weak_divergence_into(const Mesh& mesh, const ShapeTable& shape,
                                   std::span<const double> vel,
                                   std::vector<double>& div) {
  const std::size_t nn = static_cast<std::size_t>(mesh.num_nodes());
  if (vel.size() != nn * kDim) {
    throw std::invalid_argument("assemble_weak_divergence: bad velocity size");
  }
  div.assign(nn, 0.0);
  ElementGeometry geo;
  for (int e = 0; e < mesh.num_elements(); ++e) {
    element_geometry(mesh, shape, e, geo);
    const auto ln = mesh.element(e);
    for (int g = 0; g < kGauss; ++g) {
      // (∇·u)(g) = Σ_d Σ_b ∂N_b/∂x_d u_{b,d}
      double dv = 0.0;
      for (int d = 0; d < kDim; ++d) {
        for (int b = 0; b < kNodes; ++b) {
          dv = geo.gpcar[g][d][b] * vel[static_cast<std::size_t>(ln[b]) * kDim +
                                        static_cast<std::size_t>(d)] +
               dv;
        }
      }
      const double dvv = dv * geo.gpvol[g];
      for (int a = 0; a < kNodes; ++a) {
        div[static_cast<std::size_t>(ln[a])] += shape.n(g, a) * dvv;
      }
    }
  }
}

void assemble_weak_gradient_into(const Mesh& mesh, const ShapeTable& shape,
                                 std::span<const double> p,
                                 std::vector<double>& grad) {
  const std::size_t nn = static_cast<std::size_t>(mesh.num_nodes());
  if (p.size() != nn) {
    throw std::invalid_argument("assemble_weak_gradient: bad field size");
  }
  grad.assign(nn * kDim, 0.0);
  ElementGeometry geo;
  for (int e = 0; e < mesh.num_elements(); ++e) {
    element_geometry(mesh, shape, e, geo);
    const auto ln = mesh.element(e);
    for (int g = 0; g < kGauss; ++g) {
      double gp[kDim];
      for (int d = 0; d < kDim; ++d) {
        double s = 0.0;
        for (int b = 0; b < kNodes; ++b) {
          s = geo.gpcar[g][d][b] * p[static_cast<std::size_t>(ln[b])] + s;
        }
        gp[d] = s * geo.gpvol[g];
      }
      for (int a = 0; a < kNodes; ++a) {
        const double na = shape.n(g, a);
        for (int d = 0; d < kDim; ++d) {
          grad[static_cast<std::size_t>(ln[a]) * kDim +
               static_cast<std::size_t>(d)] += na * gp[d];
        }
      }
    }
  }
}

void pin_dirichlet(solver::CsrMatrix& a, std::span<const int> nodes) {
  std::vector<char> pinned(static_cast<std::size_t>(a.rows()), 0);
  for (int r : nodes) {
    if (r < 0 || r >= a.rows()) {
      throw std::out_of_range("pin_dirichlet: node outside matrix");
    }
    pinned[static_cast<std::size_t>(r)] = 1;
  }
  for (int r = 0; r < a.rows(); ++r) {
    const auto cols = a.row_cols(r);
    const auto vals = a.row_vals(r);
    const bool row_pinned = pinned[static_cast<std::size_t>(r)] != 0;
    for (std::size_t k = 0; k < cols.size(); ++k) {
      const bool col_pinned = pinned[static_cast<std::size_t>(cols[k])] != 0;
      if (row_pinned || col_pinned) {
        vals[k] = (cols[k] == r && row_pinned) ? 1.0 : 0.0;
      }
    }
  }
}

}  // namespace vecfd::fem
