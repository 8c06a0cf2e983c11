#include "support/reference_assembly.h"

#include <cmath>

namespace vecfd::fem {

void assemble_element(const Mesh& mesh, const State& state,
                      const ShapeTable& shape, int elem, Scheme scheme,
                      ElementSystem& out) {
  const Physics& phys = state.physics();
  const auto ln = mesh.element(elem);

  // ---- phase 1/2 equivalents: gather ------------------------------------
  double elvel[2][kDim][kNodes];
  double elpre[kNodes];
  for (int a = 0; a < kNodes; ++a) {
    const int n = ln[a];
    for (int d = 0; d < kDim; ++d) {
      elvel[0][d][a] = state.velocity(n, d);
      elvel[1][d][a] = state.unknowns_old()[n * kDofs + d];
    }
    elpre[a] = state.pressure(n);
  }
  const double dtfac = element_dt_factor(phys, mesh.material(elem));

  // ---- phase 3 equivalent: Jacobian, gpcar, gpvol ------------------------
  ElementGeometry geo;
  element_geometry(mesh, shape, elem, geo);
  const auto& gpcar = geo.gpcar;
  const auto& gpvol = geo.gpvol;

  // ---- phase 4 equivalent: Gauss-point arrays -----------------------------
  double gpvel[kGauss][2][kDim];
  double gpadv[kGauss][kDim];
  double gpgve[kGauss][kDim][kDim];  // [j][d] = ∂u_d/∂x_j
  double gppre[kGauss];
  for (int g = 0; g < kGauss; ++g) {
    for (int l = 0; l < 2; ++l) {
      for (int d = 0; d < kDim; ++d) {
        double s = 0.0;
        for (int a = 0; a < kNodes; ++a) {
          s = shape.n(g, a) * elvel[l][d][a] + s;
        }
        gpvel[g][l][d] = s;
      }
    }
    for (int d = 0; d < kDim; ++d) gpadv[g][d] = gpvel[g][0][d];
    for (int j = 0; j < kDim; ++j) {
      for (int d = 0; d < kDim; ++d) {
        double s = 0.0;
        for (int a = 0; a < kNodes; ++a) {
          s = gpcar[g][j][a] * elvel[0][d][a] + s;
        }
        gpgve[g][j][d] = s;
      }
    }
    double s = 0.0;
    for (int a = 0; a < kNodes; ++a) {
      s = shape.n(g, a) * elpre[a] + s;
    }
    gppre[g] = s;
  }

  // ---- phase 5 equivalent: stabilization + time-integration arrays -------
  // rt[g][d] = (ρ f_d + dtfac·u_old)·gpvol,  pt[g] = gppre·gpvol
  double tau[kGauss];
  double rt[kGauss][kDim];
  double pt[kGauss];
  for (int g = 0; g < kGauss; ++g) {
    const double h = std::cbrt(gpvol[g]);
    double s = gpadv[g][0] * gpadv[g][0];
    s = gpadv[g][1] * gpadv[g][1] + s;
    s = gpadv[g][2] * gpadv[g][2] + s;
    const double advnorm = std::sqrt(s);
    const double t1 = h * h;
    const double t2 = t1 * phys.density;
    const double d1 = (4.0 * phys.viscosity) / t2;
    const double t4 = advnorm * 2.0;
    const double d2 = t4 / h;
    double den = d1 + d2;
    den = den + dtfac;
    // velocity-gradient contribution (keeps gpgve load-bearing): row-major
    // Frobenius norm of ∇u
    double s2 = gpgve[g][0][0] * gpgve[g][0][0];
    for (int j = 0; j < kDim; ++j) {
      for (int d = 0; d < kDim; ++d) {
        if (j == 0 && d == 0) continue;
        s2 = gpgve[g][j][d] * gpgve[g][j][d] + s2;
      }
    }
    const double gn = std::sqrt(s2);
    den = gn * 0.1 + den;
    tau[g] = 1.0 / den;
    for (int d = 0; d < kDim; ++d) {
      const double cd = phys.density * phys.force[d];
      const double t = dtfac * gpvel[g][1][d];
      const double f = t + cd;
      rt[g][d] = f * gpvol[g];
    }
    pt[g] = gppre[g] * gpvol[g];
  }

  for (double& v : out.rhs) v = 0.0;
  for (double& v : out.block) v = 0.0;

  // mass block (semi-implicit only): M[a][b] = Σ_g N_a N_b gpvol
  double mass[kNodes][kNodes] = {};
  if (scheme == Scheme::kSemiImplicit) {
    for (int a = 0; a < kNodes; ++a) {
      for (int b = 0; b < kNodes; ++b) {
        double acc = 0.0;
        for (int g = 0; g < kGauss; ++g) {
          const double nn = shape.n(g, a) * shape.n(g, b);
          acc = gpvol[g] * nn + acc;
        }
        mass[a][b] = acc;
      }
    }
  }

  // ---- phase 6 equivalent: SUPG convection --------------------------------
  // D[g][a] = adv·∇N_a ;  W[g][a] = (N_a + τ D_a)·ρ·gpvol
  double dmat[kGauss][kNodes];
  double wmat[kGauss][kNodes];
  for (int g = 0; g < kGauss; ++g) {
    for (int a = 0; a < kNodes; ++a) {
      double s = gpadv[g][0] * gpcar[g][0][a];
      s = gpadv[g][1] * gpcar[g][1][a] + s;
      s = gpadv[g][2] * gpcar[g][2][a] + s;
      dmat[g][a] = s;
      const double w = tau[g] * s + shape.n(g, a);
      const double rv = phys.density * gpvol[g];
      wmat[g][a] = w * rv;
    }
  }
  double conv[kNodes][kNodes];
  for (int a = 0; a < kNodes; ++a) {
    for (int b = 0; b < kNodes; ++b) {
      double s = 0.0;
      for (int g = 0; g < kGauss; ++g) {
        s = wmat[g][a] * dmat[g][b] + s;
      }
      conv[a][b] = s;
    }
  }
  // residual assembly: elrhs[d][a] = Σ_g (N·rt + gpcar·pt)  −  Σ_b C[a][b]·u_b
  for (int a = 0; a < kNodes; ++a) {
    for (int d = 0; d < kDim; ++d) {
      double acc = 0.0;
      for (int g = 0; g < kGauss; ++g) {
        acc = rt[g][d] * shape.n(g, a) + acc;
        acc = gpcar[g][d][a] * pt[g] + acc;
      }
      for (int b = 0; b < kNodes; ++b) {
        acc = acc - conv[a][b] * elvel[0][d][b];
      }
      out.rhs[d * kNodes + a] = acc;
    }
  }

  // ---- phase 7 equivalent: viscosity (symmetric block) -------------------
  double visc[kNodes][kNodes];
  for (int a = 0; a < kNodes; ++a) {
    for (int b = a; b < kNodes; ++b) {
      double s = 0.0;
      for (int g = 0; g < kGauss; ++g) {
        double q = gpcar[g][0][a] * gpcar[g][0][b];
        q = gpcar[g][1][a] * gpcar[g][1][b] + q;
        q = gpcar[g][2][a] * gpcar[g][2][b] + q;
        const double mv = phys.viscosity * gpvol[g];
        s = mv * q + s;
      }
      visc[a][b] = s;
      visc[b][a] = s;
    }
  }
  for (int a = 0; a < kNodes; ++a) {
    for (int d = 0; d < kDim; ++d) {
      double acc = out.rhs[d * kNodes + a];
      for (int b = 0; b < kNodes; ++b) {
        acc = acc - visc[a][b] * elvel[0][d][b];
      }
      out.rhs[d * kNodes + a] = acc;
    }
  }

  if (scheme == Scheme::kSemiImplicit) {
    for (int a = 0; a < kNodes; ++a) {
      for (int b = 0; b < kNodes; ++b) {
        const double m = dtfac * mass[a][b];
        const double cv = conv[a][b] + visc[a][b];
        out.block[a * kNodes + b] = m + cv;
      }
    }
  }
}

GlobalSystem assemble_global(const Mesh& mesh, const State& state,
                             const ShapeTable& shape, Scheme scheme) {
  GlobalSystem sys;
  sys.rhs.assign(static_cast<std::size_t>(mesh.num_nodes()) * kDim, 0.0);
  if (scheme == Scheme::kSemiImplicit) {
    sys.matrix = solver::CsrMatrix(mesh.node_adjacency());
    sys.has_matrix = true;
  }
  ElementSystem es;
  for (int e = 0; e < mesh.num_elements(); ++e) {
    assemble_element(mesh, state, shape, e, scheme, es);
    const auto ln = mesh.element(e);
    for (int a = 0; a < kNodes; ++a) {
      const int n = ln[a];
      for (int d = 0; d < kDim; ++d) {
        sys.rhs[static_cast<std::size_t>(n) * kDim + d] +=
            es.rhs[d * kNodes + a];
      }
    }
    if (scheme == Scheme::kSemiImplicit) {
      for (int a = 0; a < kNodes; ++a) {
        for (int b = 0; b < kNodes; ++b) {
          sys.matrix.add(ln[a], ln[b], es.block[a * kNodes + b]);
        }
      }
    }
  }
  return sys;
}

}  // namespace vecfd::fem
