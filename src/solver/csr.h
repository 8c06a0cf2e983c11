// vecfd::solver — compressed-sparse-row matrix.
//
// The algebraic substrate of the CFD pipeline (§2.3: "CFD applications are
// often structured into two primary operations: assembly and algebraic
// linear solver").  The mini-app covers assembly; this module provides the
// solver side used by the full-flow example and the semi-implicit scheme.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace vecfd::solver {

class CsrMatrix {
 public:
  CsrMatrix() = default;

  /// Build a square matrix with an explicit sparsity pattern.
  /// @param adjacency adjacency[i] lists the column indices of row i
  ///        (need not be sorted; duplicates are merged; the diagonal is
  ///        added if missing).  Values start at zero.
  explicit CsrMatrix(const std::vector<std::vector<int>>& adjacency);

  int rows() const { return static_cast<int>(rowptr_.size()) - 1; }
  std::size_t nnz() const { return cols_.size(); }

  std::span<const int> row_cols(int r) const;
  std::span<const double> row_vals(int r) const;
  std::span<double> row_vals(int r);

  /// Index of entry (r, c) in the value array, or -1 if not in the pattern.
  std::ptrdiff_t find(int r, int c) const;

  /// Add @p v to entry (r, c).  @throws std::out_of_range if (r, c) is not
  /// part of the pattern — assembly into a missing entry is a meshing bug.
  void add(int r, int c, double v);

  double at(int r, int c) const;  ///< 0.0 if outside the pattern

  void set_zero();  ///< reset values, keep the pattern

  /// y = A·x
  void spmv(std::span<const double> x, std::span<double> y) const;

  std::span<const int> rowptr() const { return rowptr_; }
  std::span<const int> cols() const { return cols_; }
  std::span<const double> vals() const { return vals_; }
  std::span<double> vals() { return vals_; }

 private:
  std::vector<int> rowptr_{0};
  std::vector<int> cols_;
  std::vector<double> vals_;
};

/// Symmetric permutation B = P·A·Pᵀ for perm[new] = old: row/column `new`
/// of B carries row/column perm[new] of A, so solving B·(P x) = P b is the
/// same linear system renumbered.  This is how a bandwidth-minimizing
/// ordering (fem::rcm_ordering) is applied to an assembled operator without
/// touching the assembly itself.  Columns are re-sorted by the CsrMatrix
/// constructor; values follow their entries.
CsrMatrix permute_symmetric(const CsrMatrix& a, std::span<const int> perm);

}  // namespace vecfd::solver
