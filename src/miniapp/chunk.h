// vecfd::miniapp — the VECTOR_SIZE element-chunk workspace.
//
// Alya processes elements in packs of VECTOR_SIZE with every element-local
// array laid out structure-of-arrays, the element index (ivect) fastest.
// That layout is the whole point of the paper's IVEC2 optimization: it puts
// the long dimension innermost so that unit-stride vector instructions can
// cover it.  All plane accessors below return the base of a contiguous
// [vs]-long strip.
#pragma once

#include <cstdint>
#include <vector>

#include "fem/element.h"

namespace vecfd::miniapp {

class ElementChunk {
 public:
  explicit ElementChunk(int vector_size, bool with_matrix);

  int vs() const { return vs_; }
  int count() const { return count_; }
  int first() const { return first_; }
  bool with_matrix() const { return with_matrix_; }

  /// Re-target the workspace at a new chunk of elements (buffers reused).
  void reset(int first_element, int count);

  // ---- phase-1 outputs ---------------------------------------------------
  std::int32_t* lnods(int a) { return lnods_.data() + a * vs_; }
  double* dtfac() { return dtfac_.data(); }
  std::int32_t* valid() { return valid_.data(); }
  /// Element-type dispatch code computed by work A (Alya selects the
  /// shape-function tables with it; our single-type mesh always yields 0).
  std::int32_t* etype() { return etype_.data(); }
  double* elcod(int d, int a) {
    return elcod_.data() + (d * fem::kNodes + a) * vs_;
  }

  // ---- phase-2 outputs -----------------------------------------------------
  /// Current unknowns, dof-major: planes 0..2 velocity, plane 3 pressure.
  /// The dof-major layout makes VEC2's vl=4 strided store land exactly on
  /// the four planes of one node.
  double* elunk(int dof, int a) {
    return elunk_.data() + (dof * fem::kNodes + a) * vs_;
  }
  double* elvel(int d, int a) { return elunk(d, a); }
  double* elpre(int a) { return elunk(fem::kDim, a); }
  double* elvel_old(int d, int a) {
    return elvel_old_.data() + (d * fem::kNodes + a) * vs_;
  }

  // ---- phase-3 work -------------------------------------------------------
  double* jtmp(int i, int j) {
    return jtmp_.data() + (i * fem::kDim + j) * vs_;
  }
  double* itmp(int j, int d) {
    return itmp_.data() + (j * fem::kDim + d) * vs_;
  }
  double* gpcar(int g, int d, int a) {
    return gpcar_.data() +
           ((g * fem::kDim + d) * fem::kNodes + a) * vs_;
  }
  double* gpvol(int g) { return gpvol_.data() + g * vs_; }

  // ---- phase-4 outputs -------------------------------------------------------
  double* gpvel(int l, int g, int d) {
    return gpvel_.data() + ((l * fem::kGauss + g) * fem::kDim + d) * vs_;
  }
  double* gpadv(int g, int d) {
    return gpadv_.data() + (g * fem::kDim + d) * vs_;
  }
  double* gpgve(int g, int j, int d) {
    return gpgve_.data() + ((g * fem::kDim + j) * fem::kDim + d) * vs_;
  }
  double* gppre(int g) { return gppre_.data() + g * vs_; }

  // ---- phase-5 outputs ---------------------------------------------------------
  double* tau(int g) { return tau_.data() + g * vs_; }
  /// rt = (ρf + dtfac·u_old)·gpvol  (time-integration RHS × measure)
  double* gprhs(int g, int d) {
    return gprhs_.data() + (g * fem::kDim + d) * vs_;
  }
  /// pt = gppre·gpvol
  double* gppre_t(int g) { return gppre_t_.data() + g * vs_; }
  double* mass(int a, int b) {
    return mass_.data() + (a * fem::kNodes + b) * vs_;
  }

  // ---- phase-6/7 outputs ------------------------------------------------------
  double* dmat(int g, int a) {
    return dmat_.data() + (g * fem::kNodes + a) * vs_;
  }
  double* wmat(int g, int a) {
    return wmat_.data() + (g * fem::kNodes + a) * vs_;
  }
  double* conv(int a, int b) {
    return conv_.data() + (a * fem::kNodes + b) * vs_;
  }
  double* visc(int a, int b) {
    return visc_.data() + (a * fem::kNodes + b) * vs_;
  }
  double* block(int a, int b) {
    return block_.data() + (a * fem::kNodes + b) * vs_;
  }
  double* elrhs(int d, int a) {
    return elrhs_.data() + (d * fem::kNodes + a) * vs_;
  }

 private:
  int vs_ = 0;
  int count_ = 0;
  int first_ = 0;
  bool with_matrix_ = false;

  std::vector<std::int32_t> lnods_;
  std::vector<double> dtfac_;
  std::vector<std::int32_t> valid_;
  std::vector<std::int32_t> etype_;
  std::vector<double> elcod_;
  std::vector<double> elunk_;
  std::vector<double> elvel_old_;
  std::vector<double> jtmp_;
  std::vector<double> itmp_;
  std::vector<double> gpcar_;
  std::vector<double> gpvol_;
  std::vector<double> gpvel_;
  std::vector<double> gpadv_;
  std::vector<double> gpgve_;
  std::vector<double> gppre_;
  std::vector<double> tau_;
  std::vector<double> gprhs_;
  std::vector<double> gppre_t_;
  std::vector<double> mass_;
  std::vector<double> dmat_;
  std::vector<double> wmat_;
  std::vector<double> conv_;
  std::vector<double> visc_;
  std::vector<double> block_;
  std::vector<double> elrhs_;
};

}  // namespace vecfd::miniapp
