#include "solver/sell.h"

#include <algorithm>
#include <numeric>
#include <stdexcept>

namespace vecfd::solver {

SellMatrix::SellMatrix(const CsrMatrix& a, int slice_height,
                       int sigma_slices) {
  assign(a, slice_height, sigma_slices);
}

void SellMatrix::assign(const CsrMatrix& a, int slice_height,
                        int sigma_slices) {
  if (slice_height <= 0) {
    throw std::invalid_argument("SellMatrix: slice height must be positive");
  }
  if (sigma_slices <= 0) {
    throw std::invalid_argument("SellMatrix: sigma_slices must be positive");
  }
  rows_ = a.rows();
  c_ = slice_height;
  sigma_ = sigma_slices * slice_height;
  num_slices_ = (rows_ + c_ - 1) / c_;

  // σ-window stable sort by descending row length: stability keeps the
  // relative order of equal-length rows, so the permutation — and with it
  // the layout — is a deterministic function of the pattern alone.
  row_ids_.resize(static_cast<std::size_t>(num_slices_) *
                  static_cast<std::size_t>(c_));
  std::iota(row_ids_.begin(), row_ids_.begin() + rows_, 0);
  for (int w0 = 0; w0 < rows_; w0 += sigma_) {
    const int w1 = std::min(w0 + sigma_, rows_);
    std::stable_sort(row_ids_.begin() + w0, row_ids_.begin() + w1,
                     [&](std::int32_t x, std::int32_t y) {
                       return a.row_cols(x).size() > a.row_cols(y).size();
                     });
  }
  // Tail lanes beyond the last row mirror the last valid row id; the SpMV
  // kernels never read them (set_vl stops at slice_rows), but keeping them
  // in-range makes the buffer safe to load wholesale.
  for (int q = rows_; q < num_slices_ * c_; ++q) {
    row_ids_[static_cast<std::size_t>(q)] = rows_ > 0 ? rows_ - 1 : 0;
  }

  width_.resize(static_cast<std::size_t>(num_slices_));
  off_.resize(static_cast<std::size_t>(num_slices_));
  slab_off_.resize(static_cast<std::size_t>(num_slices_));
  row_base_.resize(static_cast<std::size_t>(num_slices_));
  std::size_t cells = 0;
  int slabs = 0;
  for (int s = 0; s < num_slices_; ++s) {
    const int nr = slice_rows(s);
    const std::int32_t* ids = row_ids(s);
    int w = 0;
    bool contiguous = true;
    for (int l = 0; l < nr; ++l) {
      w = std::max(w, static_cast<int>(a.row_cols(ids[l]).size()));
      contiguous = contiguous && ids[l] == ids[0] + l;
    }
    width_[static_cast<std::size_t>(s)] = w;
    off_[static_cast<std::size_t>(s)] = cells;
    slab_off_[static_cast<std::size_t>(s)] = slabs;
    row_base_[static_cast<std::size_t>(s)] = contiguous ? ids[0] : -1;
    cells += static_cast<std::size_t>(w) * static_cast<std::size_t>(nr);
    slabs += w;
  }
  cells_ = cells;

  vals_.assign(cells, 0.0);
  cols_.assign(cells, -1);
  coal_.assign(static_cast<std::size_t>(slabs), -1);
  for (int s = 0; s < num_slices_; ++s) {
    const int nr = slice_rows(s);
    const std::int32_t* ids = row_ids(s);
    double* sv = vals_.data() + off_[static_cast<std::size_t>(s)];
    std::int32_t* sc = cols_.data() + off_[static_cast<std::size_t>(s)];
    for (int j = 0; j < slice_width(s); ++j) {
      bool unit_run = true;
      std::int32_t c0 = -1;
      for (int l = 0; l < nr; ++l) {
        const std::size_t k =
            static_cast<std::size_t>(j) * static_cast<std::size_t>(nr) +
            static_cast<std::size_t>(l);
        const auto cs = a.row_cols(ids[l]);
        if (j < static_cast<int>(cs.size())) {
          sv[k] = a.row_vals(ids[l])[static_cast<std::size_t>(j)];
          sc[k] = cs[static_cast<std::size_t>(j)];
          if (l == 0) c0 = sc[k];
          unit_run = unit_run && sc[k] == c0 + l;
        } else {
          // masked pad: the gather lane reads +0.0 with no memory traffic
          sv[k] = 0.0;
          sc[k] = -1;
          unit_run = false;
        }
      }
      if (unit_run) {
        coal_[static_cast<std::size_t>(
                  slab_off_[static_cast<std::size_t>(s)]) +
              static_cast<std::size_t>(j)] = c0;
      }
    }
  }
}

}  // namespace vecfd::solver
