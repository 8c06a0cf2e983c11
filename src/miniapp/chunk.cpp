#include "miniapp/chunk.h"

#include <stdexcept>

namespace vecfd::miniapp {

using fem::kDim;
using fem::kDofs;
using fem::kGauss;
using fem::kNodes;

ElementChunk::ElementChunk(int vector_size, bool with_matrix)
    : vs_(vector_size), with_matrix_(with_matrix) {
  if (vector_size <= 0) {
    throw std::invalid_argument("ElementChunk: vector_size must be > 0");
  }
  const auto n = static_cast<std::size_t>(vs_);
  lnods_.assign(static_cast<std::size_t>(kNodes) * n, 0);
  dtfac_.assign(n, 0.0);
  valid_.assign(n, 0);
  etype_.assign(n, 0);
  elcod_.assign(static_cast<std::size_t>(kDim) * kNodes * n, 0.0);
  elunk_.assign(static_cast<std::size_t>(kDofs) * kNodes * n, 0.0);
  elvel_old_.assign(static_cast<std::size_t>(kDim) * kNodes * n, 0.0);
  jtmp_.assign(static_cast<std::size_t>(kDim) * kDim * n, 0.0);
  itmp_.assign(static_cast<std::size_t>(kDim) * kDim * n, 0.0);
  gpcar_.assign(static_cast<std::size_t>(kGauss) * kDim * kNodes * n, 0.0);
  gpvol_.assign(static_cast<std::size_t>(kGauss) * n, 0.0);
  gpvel_.assign(static_cast<std::size_t>(2) * kGauss * kDim * n, 0.0);
  gpadv_.assign(static_cast<std::size_t>(kGauss) * kDim * n, 0.0);
  gpgve_.assign(static_cast<std::size_t>(kGauss) * kDim * kDim * n, 0.0);
  gppre_.assign(static_cast<std::size_t>(kGauss) * n, 0.0);
  tau_.assign(static_cast<std::size_t>(kGauss) * n, 0.0);
  gprhs_.assign(static_cast<std::size_t>(kGauss) * kDim * n, 0.0);
  gppre_t_.assign(static_cast<std::size_t>(kGauss) * n, 0.0);
  dmat_.assign(static_cast<std::size_t>(kGauss) * kNodes * n, 0.0);
  wmat_.assign(static_cast<std::size_t>(kGauss) * kNodes * n, 0.0);
  conv_.assign(static_cast<std::size_t>(kNodes) * kNodes * n, 0.0);
  visc_.assign(static_cast<std::size_t>(kNodes) * kNodes * n, 0.0);
  elrhs_.assign(static_cast<std::size_t>(kDim) * kNodes * n, 0.0);
  if (with_matrix_) {
    mass_.assign(static_cast<std::size_t>(kNodes) * kNodes * n, 0.0);
    block_.assign(static_cast<std::size_t>(kNodes) * kNodes * n, 0.0);
  }
}

void ElementChunk::reset(int first_element, int count) {
  if (count <= 0 || count > vs_) {
    throw std::invalid_argument("ElementChunk::reset: bad count");
  }
  first_ = first_element;
  count_ = count;
}

}  // namespace vecfd::miniapp
