#include "miniapp/native_kernels.h"

#include "fem/element.h"

namespace vecfd::miniapp::native {

using fem::kDim;
using fem::kDofs;
using fem::kGauss;
using fem::kNodes;

void phase2_vanilla(const std::int32_t* lnods, const double* unk,
                    const double* unk_old, double* elunk, double* elvel_old,
                    const int* bound) {
  // `*bound` is deliberately re-read every iteration: the compiler must
  // assume the stores below may alias it, blocking vectorization.
  const int vs = *bound;
  for (int iv = 0; iv < *bound; ++iv) {
    for (int a = 0; a < kNodes; ++a) {
      const std::int32_t n = lnods[a * vs + iv];
      const std::size_t base = static_cast<std::size_t>(n) * kDofs;
      for (int dof = 0; dof < kDofs; ++dof) {
        elunk[(dof * kNodes + a) * vs + iv] = unk[base + dof];
      }
      for (int d = 0; d < kDim; ++d) {
        elvel_old[(d * kNodes + a) * vs + iv] = unk_old[base + d];
      }
    }
  }
}

void phase2_dof_inner(const std::int32_t* lnods, const double* unk,
                      const double* unk_old, double* elunk,
                      double* elvel_old, int vs) {
  for (int iv = 0; iv < vs; ++iv) {
    for (int a = 0; a < kNodes; ++a) {
      const std::int32_t n = lnods[a * vs + iv];
      const std::size_t base = static_cast<std::size_t>(n) * kDofs;
      for (int dof = 0; dof < kDofs; ++dof) {
        elunk[(dof * kNodes + a) * vs + iv] = unk[base + dof];
      }
      for (int d = 0; d < kDim; ++d) {
        elvel_old[(d * kNodes + a) * vs + iv] = unk_old[base + d];
      }
    }
  }
}

void phase2_ivect_inner(const std::int32_t* lnods, const double* unk,
                        const double* unk_old, double* elunk,
                        double* elvel_old, int vs) {
  for (int a = 0; a < kNodes; ++a) {
    for (int dof = 0; dof < kDofs; ++dof) {
      double* dst = elunk + (dof * kNodes + a) * vs;
      const std::int32_t* ln = lnods + a * vs;
      for (int iv = 0; iv < vs; ++iv) {
        dst[iv] = unk[static_cast<std::size_t>(ln[iv]) * kDofs + dof];
      }
    }
    for (int d = 0; d < kDim; ++d) {
      double* dst = elvel_old + (d * kNodes + a) * vs;
      const std::int32_t* ln = lnods + a * vs;
      for (int iv = 0; iv < vs; ++iv) {
        dst[iv] = unk_old[static_cast<std::size_t>(ln[iv]) * kDofs + d];
      }
    }
  }
}

namespace {
inline void work_a(const std::int32_t* mesh_lnods, const std::int32_t* elmat,
                   std::int32_t* lnods, double* dtfac, int first, int vs,
                   double base_dt, int iv) {
  const int e = first + iv;
  for (int a = 0; a < kNodes; ++a) {
    lnods[a * vs + iv] = mesh_lnods[static_cast<std::size_t>(e) * kNodes + a];
  }
  dtfac[iv] = elmat[e] == 0 ? base_dt : 1.02 * base_dt;
}

inline void work_b(const double* coords, const std::int32_t* lnods,
                   double* elcod, int vs, int iv) {
  for (int a = 0; a < kNodes; ++a) {
    const std::int32_t n = lnods[a * vs + iv];
    for (int d = 0; d < kDim; ++d) {
      elcod[(d * kNodes + a) * vs + iv] =
          coords[static_cast<std::size_t>(n) * kDim + d];
    }
  }
}
}  // namespace

void phase1_fused(const std::int32_t* mesh_lnods, const std::int32_t* elmat,
                  const double* coords, std::int32_t* lnods, double* dtfac,
                  double* elcod, int first, int vs, double base_dt) {
  for (int iv = 0; iv < vs; ++iv) {
    work_a(mesh_lnods, elmat, lnods, dtfac, first, vs, base_dt, iv);
    work_b(coords, lnods, elcod, vs, iv);
  }
}

void phase1_split(const std::int32_t* mesh_lnods, const std::int32_t* elmat,
                  const double* coords, std::int32_t* lnods, double* dtfac,
                  double* elcod, int first, int vs, double base_dt) {
  for (int iv = 0; iv < vs; ++iv) {
    work_a(mesh_lnods, elmat, lnods, dtfac, first, vs, base_dt, iv);
  }
  // fissioned work B: dense gathers over the long dimension
  for (int a = 0; a < kNodes; ++a) {
    const std::int32_t* ln = lnods + a * vs;
    for (int d = 0; d < kDim; ++d) {
      double* dst = elcod + (d * kNodes + a) * vs;
      for (int iv = 0; iv < vs; ++iv) {
        dst[iv] = coords[static_cast<std::size_t>(ln[iv]) * kDim + d];
      }
    }
  }
}

void conv_block(const double* wmat, const double* dmat, double* conv,
                int vs) {
  for (int a = 0; a < kNodes; ++a) {
    for (int b = 0; b < kNodes; ++b) {
      double* dst = conv + (a * kNodes + b) * vs;
      for (int iv = 0; iv < vs; ++iv) dst[iv] = 0.0;
      for (int g = 0; g < kGauss; ++g) {
        const double* w = wmat + (g * kNodes + a) * vs;
        const double* d = dmat + (g * kNodes + b) * vs;
        for (int iv = 0; iv < vs; ++iv) {
          dst[iv] = w[iv] * d[iv] + dst[iv];
        }
      }
    }
  }
}

}  // namespace vecfd::miniapp::native
