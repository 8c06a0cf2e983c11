#include "solver/csr.h"

#include <algorithm>
#include <stdexcept>

namespace vecfd::solver {

CsrMatrix::CsrMatrix(const std::vector<std::vector<int>>& adjacency) {
  const int n = static_cast<int>(adjacency.size());
  rowptr_.assign(static_cast<std::size_t>(n) + 1, 0);
  std::vector<int> row;
  for (int r = 0; r < n; ++r) {
    row = adjacency[static_cast<std::size_t>(r)];
    row.push_back(r);  // ensure the diagonal
    std::sort(row.begin(), row.end());
    row.erase(std::unique(row.begin(), row.end()), row.end());
    for (int c : row) {
      if (c < 0 || c >= n) {
        throw std::out_of_range("CsrMatrix: adjacency column out of range");
      }
      cols_.push_back(c);
    }
    rowptr_[static_cast<std::size_t>(r) + 1] =
        static_cast<int>(cols_.size());
  }
  vals_.assign(cols_.size(), 0.0);
}

std::span<const int> CsrMatrix::row_cols(int r) const {
  const auto b = static_cast<std::size_t>(rowptr_[r]);
  const auto e = static_cast<std::size_t>(rowptr_[r + 1]);
  return {cols_.data() + b, e - b};
}

std::span<const double> CsrMatrix::row_vals(int r) const {
  const auto b = static_cast<std::size_t>(rowptr_[r]);
  const auto e = static_cast<std::size_t>(rowptr_[r + 1]);
  return {vals_.data() + b, e - b};
}

std::span<double> CsrMatrix::row_vals(int r) {
  const auto b = static_cast<std::size_t>(rowptr_[r]);
  const auto e = static_cast<std::size_t>(rowptr_[r + 1]);
  return {vals_.data() + b, e - b};
}

std::ptrdiff_t CsrMatrix::find(int r, int c) const {
  if (r < 0 || r >= rows()) return -1;
  const auto cs = row_cols(r);
  const auto it = std::lower_bound(cs.begin(), cs.end(), c);
  if (it == cs.end() || *it != c) return -1;
  return rowptr_[r] + (it - cs.begin());
}

void CsrMatrix::add(int r, int c, double v) {
  const std::ptrdiff_t i = find(r, c);
  if (i < 0) {
    throw std::out_of_range("CsrMatrix::add: entry outside sparsity pattern");
  }
  vals_[static_cast<std::size_t>(i)] += v;
}

double CsrMatrix::at(int r, int c) const {
  const std::ptrdiff_t i = find(r, c);
  return i < 0 ? 0.0 : vals_[static_cast<std::size_t>(i)];
}

void CsrMatrix::set_zero() { std::fill(vals_.begin(), vals_.end(), 0.0); }

void CsrMatrix::spmv(std::span<const double> x, std::span<double> y) const {
  const int n = rows();
  if (static_cast<int>(x.size()) != n || static_cast<int>(y.size()) != n) {
    throw std::invalid_argument("CsrMatrix::spmv: dimension mismatch");
  }
  for (int r = 0; r < n; ++r) {
    double s = 0.0;
    const auto b = rowptr_[r];
    const auto e = rowptr_[r + 1];
    for (int k = b; k < e; ++k) {
      s += vals_[static_cast<std::size_t>(k)] *
           x[static_cast<std::size_t>(cols_[static_cast<std::size_t>(k)])];
    }
    y[static_cast<std::size_t>(r)] = s;
  }
}

CsrMatrix permute_symmetric(const CsrMatrix& a, std::span<const int> perm) {
  const int n = a.rows();
  if (static_cast<int>(perm.size()) != n) {
    throw std::invalid_argument("permute_symmetric: permutation size");
  }
  std::vector<int> inv(static_cast<std::size_t>(n), -1);
  for (int q = 0; q < n; ++q) {
    const int old = perm[static_cast<std::size_t>(q)];
    if (old < 0 || old >= n || inv[static_cast<std::size_t>(old)] != -1) {
      throw std::invalid_argument("permute_symmetric: not a permutation");
    }
    inv[static_cast<std::size_t>(old)] = q;
  }
  std::vector<std::vector<int>> adj(static_cast<std::size_t>(n));
  for (int q = 0; q < n; ++q) {
    const auto cs = a.row_cols(perm[static_cast<std::size_t>(q)]);
    adj[static_cast<std::size_t>(q)].reserve(cs.size());
    for (int c : cs) {
      adj[static_cast<std::size_t>(q)].push_back(
          inv[static_cast<std::size_t>(c)]);
    }
  }
  CsrMatrix b(adj);
  for (int q = 0; q < n; ++q) {
    const int old = perm[static_cast<std::size_t>(q)];
    const auto cs = a.row_cols(old);
    const auto vs = a.row_vals(old);
    for (std::size_t k = 0; k < cs.size(); ++k) {
      b.add(q, inv[static_cast<std::size_t>(cs[k])], vs[k]);
    }
  }
  return b;
}

}  // namespace vecfd::solver
