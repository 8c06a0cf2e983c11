// vecfd::solver — Vpu-instrumented long-vector solve kernels.
//
// The paper's co-design argument is made on indexed-access kernels; the
// canonical one in CFD is the SpMV inside the Krylov solve (§2.3: "assembly
// and algebraic linear solver").  This layer re-implements the solver side
// of krylov.h against the sim::Vpu instruction API, so the solve gets the
// same per-phase counters (Mv, Av, vCPI, AVL, Ev, cache misses) as the
// eight assembly phases:
//
//   * SpMV runs on a column-major padded ELL mirror of the CSR operator —
//     the classic long-vector layout: each of the `width` slabs is walked
//     with a unit-stride `vload` of values, a unit-stride `vload_i32` of
//     column indices and a `vgather` of x[cols[k]], accumulated with `vfma`
//     across a strip of rows.  Every instruction runs at the strip's vector
//     length, so AVL approaches vlmax for large strips.
//   * The BLAS-1 kernels (dot, norm2, axpy, ...) strip-mine the same way.
//   * vcg runs the one CG recurrence of solver/cg_recurrence.h (shared
//     with the host cg and the sharded solver::ShardedCg) on a single Vpu;
//     vbicgstab_multi runs the one BiCGStab recurrence of
//     solver/bicgstab_recurrence.h (shared with the host test oracle),
//     and vbicgstab is its k = 1 block.  Both keep the breakdown-reporting
//     contract of krylov.h and agree with the host solvers to solver
//     tolerance.
//
// Every kernel takes a `strip` parameter — the requested software strip
// length, Alya's VECTOR_SIZE applied to the solve; <= 0 means vlmax.  On a
// scalar-only machine configuration (vector_enabled == false) each kernel
// runs as instrumented scalar code computing identical values, so the
// scalar/vector comparison the paper draws for assembly extends to the
// solve.  A BLAS-1 kernel has one body over the lane types of sim/lanes.h,
// issued as vector strips or scalar lanes; the SpMVs keep a scalar loop of
// their own, which walks rows in the layout's memory order.
//
// Operator setup (the ELL mirror, the Jacobi diagonal) is host-side and
// uncounted: the co-design analysis targets the iteration loop, and in a
// time-stepping code the setup amortizes over many solves.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <vector>

#include "sim/vpu.h"
#include "solver/csr.h"
#include "solver/format.h"
#include "solver/krylov.h"
#include "solver/sell.h"

namespace vecfd::solver {

/// The canonical strip-miner: the ONE place a raw loop may drive set_vl.
/// fn(i, vl) sees vl = min(strip, n - i) already granted via vsetvl; the
/// tail strip carries the effective-AVL/tail-mask accounting, and every
/// strip charges the 2-op loop-control overhead.  vecfd-lint rule
/// `strip-mine-contract` rejects vector issues in raw loops outside calls
/// to this helper — new kernels (the preconditioner ladder included) must
/// route their strip traversal through it.
template <class Fn>
void for_strips(sim::Vpu& vpu, int n, int strip, Fn&& fn) {
  for (int i = 0; i < n;) {
    const int vl = vpu.set_vl(std::min(strip, n - i));
    fn(i, vl);
    vpu.sarith(2);  // strip bump + loop bound check
    i += vl;
  }
}

/// Column-major padded ELL mirror of a CsrMatrix.
///
/// Rows shorter than `width` are padded with (column −1, 0.0) entries: the
/// negative column is the Vpu's masked-lane convention (vgather reads +0.0
/// and generates NO cache traffic — a pad must not fake locality on a real
/// line), and the fma adds exactly +0.0, so vspmv reproduces
/// CsrMatrix::spmv's per-row summation order and values bit for bit.
class EllMatrix {
 public:
  EllMatrix() = default;
  explicit EllMatrix(const CsrMatrix& a) { assign(a); }

  /// Re-mirror @p a, reusing the existing slab storage when the shape
  /// (rows × width) is unchanged — no reallocation, so repeated solves on
  /// an updated operator keep touching the same memory lines (the
  /// determinism requirement of mem/memory_hierarchy.h).  The identity
  /// case of the row-range assign below.
  void assign(const CsrMatrix& a) {
    assign(a, 0, a.rows(), a.rows(), [](int c) { return c; });
  }

  /// Mirror rows [@p row_begin, @p row_end) of @p a with every column id c
  /// renumbered to local_col(c) in [0, @p num_cols), keeping each row's
  /// CSR entry order (a shard's restricted operator, DESIGN.md §9).
  /// @throws std::invalid_argument when local_col maps outside the range.
  template <class LocalCol>
  void assign(const CsrMatrix& a, int row_begin, int row_end, int num_cols,
              LocalCol&& local_col) {
    rows_ = row_end - row_begin;
    num_cols_ = num_cols;
    width_ = 0;
    for (int r = row_begin; r < row_end; ++r) {
      width_ = std::max(width_, static_cast<int>(a.row_cols(r).size()));
    }
    const std::size_t cells =
        static_cast<std::size_t>(width_) * static_cast<std::size_t>(rows_);
    vals_.assign(cells, 0.0);
    cols_.assign(cells, -1);  // masked pads: +0.0 and zero cache traffic
    for (int r = 0; r < rows_; ++r) {
      const auto cs = a.row_cols(row_begin + r);
      const auto vs = a.row_vals(row_begin + r);
      for (std::size_t j = 0; j < cs.size(); ++j) {
        const int c = local_col(cs[j]);
        if (c < 0 || c >= num_cols) {
          throw std::invalid_argument(
              "EllMatrix::assign: column outside the local column range");
        }
        const std::size_t k = j * static_cast<std::size_t>(rows_) +
                              static_cast<std::size_t>(r);
        vals_[k] = vs[j];
        cols_[k] = c;
      }
    }
  }

  int rows() const { return rows_; }
  int num_cols() const { return num_cols_; }  ///< length of x in vspmv
  int width() const { return width_; }  ///< max nonzeros per row

  /// Slab j (j in [0, width)): entry j of every row, row-contiguous.
  const double* vals(int j) const {
    return vals_.data() + static_cast<std::size_t>(j) * rows_;
  }
  const std::int32_t* cols(int j) const {
    return cols_.data() + static_cast<std::size_t>(j) * rows_;
  }

 private:
  int rows_ = 0;
  int num_cols_ = 0;
  int width_ = 0;
  std::vector<double> vals_;        // [width][rows]
  std::vector<std::int32_t> cols_;  // [width][rows]
};

/// The strip length the solve kernels actually run at for a requested
/// VECTOR_SIZE on @p machine: on a vector machine a request of <= 0 or
/// > vlmax is granted vlmax (the vsetvl clamp); a scalar-only machine runs
/// instrumented scalar loops, so the request passes through untouched.
/// Single source of truth for the `effective_strip` CSV column — sweep rows
/// for e.g. VECTOR_SIZE 512 on a vlmax = 256 machine are otherwise
/// mislabeled, since every kernel silently ran at 256.
int solve_effective_strip(int requested, const sim::MachineConfig& machine);

// ---- instrumented kernels ---------------------------------------------
// All lengths must match; dimension mismatches throw std::invalid_argument.
// A kernel that also has a multi-RHS form below (vspmv on ELL/SELL, vdot,
// vaxpy, vxpby, vsub, vcopy, vjacobi_apply) is that blocked kernel called
// with k = 1: one body per operation.

/// y = A·x through the Vpu (unit-stride slab loads + vgather + vfma).  x
/// has a.num_cols() entries (a shard's owned + ghost columns), y a.rows().
void vspmv(sim::Vpu& vpu, const EllMatrix& a, std::span<const double> x,
           std::span<double> y, int strip = 0);

/// y = A·x on the SELL-C-σ mirror: per slice, slabs stream at the slice's
/// OWN width (pads shrink to the per-slice excess) and slabs whose column
/// run coalesces issue a unit-stride vload of x instead of the vgather
/// (counted in coalesced_lanes); results are scattered back to original
/// row order — or unit-stride-stored when the slice kept its rows
/// contiguous — so y is bit-identical to the ELL/CSR product.  The strip
/// is clamped to the slice height (one slice = one set_vl strip when the
/// matrix was built with C = solve_effective_strip).
void vspmv(sim::Vpu& vpu, const SellMatrix& a, std::span<const double> x,
           std::span<double> y, int strip = 0);

/// y = A·x streaming the HOST CSR arrays on the scalar core — the
/// csr-host format: ragged rows defeat vectorization, so this is the
/// instrumented scalar baseline every mirror format is compared against
/// (identical values: same per-row accumulation order, no pads).
void vspmv(sim::Vpu& vpu, const CsrMatrix& a, std::span<const double> x,
           std::span<double> y);

/// Operator mirror in a selected storage format: one assign/apply surface
/// over csr-host / ELL / SELL so solvers and the TimeLoop switch format
/// with a single knob (DESIGN.md §6).  For kCsrHost no mirror is built —
/// the CSR matrix is captured by reference and must outlive apply() calls;
/// for kSell @p slice_height is the slice height C (pass the effective
/// solve strip).  Reassigning reuses slab storage in place (the
/// determinism requirement of mem/memory_hierarchy.h).
class OperatorMirror {
 public:
  void assign(const CsrMatrix& a, SpmvFormat format, int slice_height);

  SpmvFormat format() const { return format_; }
  int rows() const { return rows_; }
  const EllMatrix& ell() const { return ell_; }
  const SellMatrix& sell() const { return sell_; }

  /// y = A·x in the mirrored format (dispatches to the vspmv overloads).
  void apply(sim::Vpu& vpu, std::span<const double> x, std::span<double> y,
             int strip = 0) const;

  /// Blocked Y_d = A·X_d for k node-major columns (see vspmv_multi); the
  /// csr-host format degrades to one scalar pass per active column.
  void apply_multi(sim::Vpu& vpu, std::span<const double> x,
                   std::span<double> y, int k, int strip = 0,
                   std::span<const char> active = {}) const;

 private:
  SpmvFormat format_ = SpmvFormat::kEll;
  int rows_ = 0;
  const CsrMatrix* csr_ = nullptr;
  EllMatrix ell_;
  SellMatrix sell_;
};

double vdot(sim::Vpu& vpu, std::span<const double> a,
            std::span<const double> b, int strip = 0);

/// Overflow/underflow-safe ‖a‖₂, branching on the same kNormSumSqMin/Max
/// trust bounds as the host norm2 (krylov.h): the common path is the
/// one-pass sqrt(vdot(a,a)); only a suspect squared sum (overflowed,
/// near-denormal, zero, or non-finite) triggers an instrumented ‖a‖∞
/// rescan (vabs + vredmax) and the scaled m·sqrt(Σ(aᵢ/m)²) evaluation —
/// norms of ~1e±300 vectors stay finite, so breakdown exits never
/// misreport convergence off an inf/0 norm, and ordinary solves pay
/// nothing.  The scalar fallback computes identical values.
double vnorm2(sim::Vpu& vpu, std::span<const double> a, int strip = 0);

/// y += alpha·x
void vaxpy(sim::Vpu& vpu, double alpha, std::span<const double> x,
           std::span<double> y, int strip = 0);

/// y = x + beta·y (the CG direction update)
void vxpby(sim::Vpu& vpu, std::span<const double> x, double beta,
           std::span<double> y, int strip = 0);

/// out = a - b (out may alias a or b)
void vsub(sim::Vpu& vpu, std::span<const double> a, std::span<const double> b,
          std::span<double> out, int strip = 0);

void vcopy(sim::Vpu& vpu, std::span<const double> src, std::span<double> dst,
           int strip = 0);

/// x *= alpha (the power-iteration normalization and Chebyshev direction
/// rescale).
void vscal(sim::Vpu& vpu, double alpha, std::span<double> x, int strip = 0);

void vfill(sim::Vpu& vpu, std::span<double> dst, double value, int strip = 0);

/// z = dinv ⊙ r (Jacobi application); an empty dinv degrades to a copy.
void vjacobi_apply(sim::Vpu& vpu, std::span<const double> dinv,
                   std::span<const double> r, std::span<double> z,
                   int strip = 0);

/// out[i] = base[i·stride] — strided extraction of one field component from
/// an interleaved [node·kDim] array (the RHS slice feeding the solve).
void vpack_strided(sim::Vpu& vpu, const double* base, std::ptrdiff_t stride,
                   std::span<double> out, int strip = 0);

// ---- multi-RHS (blocked) kernels --------------------------------------
// A "block" is k same-length columns stored node-major: column d occupies
// [d·n, (d+1)·n) of the span, so every column is a unit-stride stream and
// each column's instruction sequence is identical to the k = 1 call (the
// single-RHS kernel above; per-column results are bit-for-bit equal).  The
// lever is the shared operator: vspmv_multi walks each ELL (value, index)
// slab with ONE unit-stride vload pair per strip and feeds all k
// gather/fma streams from it — k× fewer operator slab loads than k single
// SpMVs (DESIGN.md §5).
// The BLAS-1 _multi kernels fuse the k columns into a single strip-mined
// pass (one vsetvl / loop-control sequence per strip for all columns),
// returning per-column results.
//
// All take an optional `active` mask of size k (empty = all active):
// inactive columns are neither read nor written — the solvers mask out
// converged/broken-down columns so their iterates stay frozen exactly as a
// standalone solve would leave them.  On a scalar-only machine every multi
// kernel runs its scalar form over each active column in turn.

/// Y_d = A·X_d for every active column (shared slab loads, k gather/fma
/// streams); X holds k columns of a.num_cols(), Y k columns of a.rows().
void vspmv_multi(sim::Vpu& vpu, const EllMatrix& a, std::span<const double> x,
                 std::span<double> y, int k, int strip = 0,
                 std::span<const char> active = {});

/// SELL-C-σ blocked SpMV: each slice's value/index (and scatter-id) slabs
/// are loaded ONCE per strip and feed all k active gather/fma streams —
/// the same sharing lever as the ELL overload, on the leaner slab set.
void vspmv_multi(sim::Vpu& vpu, const SellMatrix& a,
                 std::span<const double> x, std::span<double> y, int k,
                 int strip = 0, std::span<const char> active = {});

/// out[d] = A_d · B_d (single fused pass; inactive columns keep out[d]).
void vdot_multi(sim::Vpu& vpu, std::span<const double> a,
                std::span<const double> b, int k, std::span<double> out,
                int strip = 0, std::span<const char> active = {});

/// Y_d += alpha[d]·X_d (per-column scalars, single fused pass).
void vaxpy_multi(sim::Vpu& vpu, std::span<const double> alpha,
                 std::span<const double> x, std::span<double> y, int k,
                 int strip = 0, std::span<const char> active = {});

/// out_d = A_d − B_d (out may alias either input).
void vsub_multi(sim::Vpu& vpu, std::span<const double> a,
                std::span<const double> b, std::span<double> out, int k,
                int strip = 0, std::span<const char> active = {});

void vcopy_multi(sim::Vpu& vpu, std::span<const double> src,
                 std::span<double> dst, int k, int strip = 0,
                 std::span<const char> active = {});

/// Z_d = dinv ⊙ R_d — the ONE shared Jacobi diagonal applied per column.
/// The diagonal is re-loaded per column (cache-hot), keeping each column's
/// instruction stream identical to vjacobi_apply; an empty dinv copies.
void vjacobi_apply_multi(sim::Vpu& vpu, std::span<const double> dinv,
                         std::span<const double> r, std::span<double> z,
                         int k, int strip = 0,
                         std::span<const char> active = {});

// ---- instrumented Krylov solvers --------------------------------------
// vcg is the single-Vpu instance of the shared CG recurrence
// (solver/cg_recurrence.h), vbicgstab_multi that of the shared BiCGStab
// recurrence (solver/bicgstab_recurrence.h), and vbicgstab is
// vbicgstab_multi at k = 1.  All keep the breakdown-reporting contract.
// The CSR operator is mirrored into the requested SpmvFormat internally
// (SELL slices at the effective strip); because every format masks its
// pads and preserves the per-row accumulation order, the residual HISTORY
// of a solve is bit-identical across formats on every exit path
// (test_format_equivalence asserts this per platform × scenario) — only
// the counters change.

/// Reusable scratch for the instrumented solvers.  One solve = one ELL
/// mirror + a handful of work vectors; callers running MANY solves in one
/// instrumented measurement (the transient TimeLoop) must pass the same
/// workspace to every call so no Vpu-touched buffer is freed and
/// re-allocated mid-measurement — the deterministic memory model renames
/// host lines in first-touch order, so alloc/free churn of touched lines
/// would make cache behaviour depend on allocator history (see
/// mem/memory_hierarchy.h).  Buffers grow on first use and are reused (no
/// reallocation) when system sizes repeat.  The multi-RHS solver sizes the
/// same work vectors to k·n, so one workspace must not alternate between
/// single- and multi-RHS solves of different block sizes within a
/// measurement (the resize would be exactly the mid-measurement
/// realloc churn the workspace exists to prevent).
class Preconditioner;  // solver/preconditioner.h

struct KrylovWorkspace {
  OperatorMirror op;
  std::vector<double> dinv;
  std::vector<double> r, z, p, q, s, t, u, w;
  /// vcg's ladder rung (solver/preconditioner.h), created on first solve
  /// and reused so its Vpu-touched scratch persists across the
  /// measurement like every other workspace buffer.
  std::shared_ptr<Preconditioner> precond;
};

SolveReport vcg(sim::Vpu& vpu, const CsrMatrix& a, std::span<const double> b,
                std::span<double> x, const SolveOptions& opts = {},
                int strip = 0, KrylovWorkspace* ws = nullptr,
                SpmvFormat format = SpmvFormat::kEll);

/// vbicgstab_multi at k = 1: one column, and every blocked kernel it
/// issues degrades to its single-RHS counterpart.
SolveReport vbicgstab(sim::Vpu& vpu, const CsrMatrix& a,
                      std::span<const double> b, std::span<double> x,
                      const SolveOptions& opts = {}, int strip = 0,
                      KrylovWorkspace* ws = nullptr,
                      SpmvFormat format = SpmvFormat::kEll);

/// The shared BiCGStab recurrence (solver/bicgstab_recurrence.h, the
/// host test oracle's too) on one Vpu, built on the blocked kernels
/// above: k node-major columns advance in lockstep, the k Krylov
/// recurrences stay independent (per-column scalars, convergence and
/// breakdown lifecycle — one SolveReport per column under the full
/// krylov.h contract), and every ELL slab streamed by the two SpMVs per
/// iteration is loaded once for all active columns instead of once per
/// column.  Column d returns bit-for-bit the iterate of vbicgstab(a, b_d,
/// x_d) at the same strip — the transient TimeLoop's phase-9 blocked
/// momentum solve rests on that equivalence.  The workspace's block
/// buffers size to k·n; as with the single-RHS solvers, one workspace must
/// serve the whole measurement.
std::vector<SolveReport> vbicgstab_multi(sim::Vpu& vpu, const CsrMatrix& a,
                                         std::span<const double> b,
                                         std::span<double> x, int k,
                                         const SolveOptions& opts = {},
                                         int strip = 0,
                                         KrylovWorkspace* ws = nullptr,
                                         SpmvFormat format =
                                             SpmvFormat::kEll);

}  // namespace vecfd::solver
