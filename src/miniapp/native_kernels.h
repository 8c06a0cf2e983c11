// vecfd::miniapp::native — host-compiled versions of the loop-order
// experiments, for running on real hardware (e.g. an AVX-512 desktop) with
// google-benchmark.  These are the same source transformations the paper
// applies (vanilla / bound-const / interchange / fission), written so the
// *host* compiler's auto-vectorizer faces the same decisions the EPI
// compiler faced — the portability half of the evaluation (Figures 12/13).
#pragma once

#include <cstdint>

namespace vecfd::miniapp::native {

/// Phase-2 gather, vanilla shape: element loop outermost and the loop bound
/// re-read through a pointer every iteration (defeats vectorization, like
/// the Fortran dummy argument in §4).
/// Arrays: lnods [kNodes][vs], unk/unk_old [node][4],
/// elunk [4][kNodes][vs], elvel_old [3][kNodes][vs].
void phase2_vanilla(const std::int32_t* lnods, const double* unk,
                    const double* unk_old, double* elunk, double* elvel_old,
                    const int* bound);

/// Phase-2 gather, VEC2 shape: constant bound, per-node dof loop innermost
/// (the compiler can vectorize only a trip-4 loop).
void phase2_dof_inner(const std::int32_t* lnods, const double* unk,
                      const double* unk_old, double* elunk,
                      double* elvel_old, int vs);

/// Phase-2 gather, IVEC2 shape: interchange puts the long element dimension
/// innermost — unit-stride stores, gathers the vectorizer can handle.
void phase2_ivect_inner(const std::int32_t* lnods, const double* unk,
                        const double* unk_old, double* elunk,
                        double* elvel_old, int vs);

/// Phase-1 gather, fused shape (work A bookkeeping + work B coordinate
/// gather in one loop) vs the VEC1 fissioned shape.
/// coords [node][3], elcod [3][kNodes][vs], dtfac [vs].
void phase1_fused(const std::int32_t* mesh_lnods, const std::int32_t* elmat,
                  const double* coords, std::int32_t* lnods, double* dtfac,
                  double* elcod, int first, int vs, double base_dt);
void phase1_split(const std::int32_t* mesh_lnods, const std::int32_t* elmat,
                  const double* coords, std::int32_t* lnods, double* dtfac,
                  double* elcod, int first, int vs, double base_dt);

/// Phase-6-style convection block on the SoA chunk layout — the
/// FMA-dominated kernel, for host roofline context.
/// wmat/dmat [kGauss][kNodes][vs], conv [kNodes][kNodes][vs].
void conv_block(const double* wmat, const double* dmat, double* conv,
                int vs);

}  // namespace vecfd::miniapp::native
