#include "support/bandwidth.h"

#include <algorithm>

namespace vecfd::solver {

int bandwidth(const CsrMatrix& a) {
  int bw = 0;
  for (int r = 0; r < a.rows(); ++r) {
    for (int c : a.row_cols(r)) {
      bw = std::max(bw, c > r ? c - r : r - c);
    }
  }
  return bw;
}

}  // namespace vecfd::solver
