#include "solver/vkernels.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "sim/lanes.h"
#include "solver/bicgstab_recurrence.h"
#include "solver/cg_recurrence.h"
#include "solver/preconditioner.h"

namespace vecfd::solver {

int solve_effective_strip(int requested, const sim::MachineConfig& machine) {
  if (!machine.vector_enabled) return requested;  // scalar loops honour it
  return requested <= 0 || requested > machine.vlmax ? machine.vlmax
                                                     : requested;
}

namespace {

void check_len(std::size_t got, std::size_t want, const char* what) {
  if (got != want) {
    throw std::invalid_argument(std::string(what) + ": dimension mismatch");
  }
}

/// SELL slice height for a solver-built mirror: the effective strip, with
/// a fixed fallback for the degenerate scalar-machine strip<=0 request
/// (layout only — the scalar fallback walks lanes either way).
int mirror_slice_height(int strip, const sim::MachineConfig& m) {
  const int eff = solve_effective_strip(strip, m);
  return eff > 0 ? eff : 64;
}

bool col_active(std::span<const char> active, int d) {
  return active.empty() || active[static_cast<std::size_t>(d)] != 0;
}

bool any_active(std::span<const char> active, int k) {
  for (int d = 0; d < k; ++d) {
    if (col_active(active, d)) return true;
  }
  return false;
}

/// Common block-kernel argument validation; returns the column length n.
std::size_t check_multi(std::size_t block_size, int k,
                        std::span<const char> active, const char* what) {
  if (k <= 0) {
    throw std::invalid_argument(std::string(what) + ": k must be positive");
  }
  if (block_size % static_cast<std::size_t>(k) != 0) {
    throw std::invalid_argument(std::string(what) + ": dimension mismatch");
  }
  if (!active.empty() && active.size() != static_cast<std::size_t>(k)) {
    throw std::invalid_argument(std::string(what) + ": active mask size");
  }
  return block_size / static_cast<std::size_t>(k);
}

/// Issue `body(lane, d, off)` over element 0 .. n−1 of every active
/// column d of a k-column block (column d starts at element off = d·n).
/// On a vector machine: ONE strip-mined pass, each strip issuing the
/// active columns in turn through a sim::VectorLanes (one vsetvl and loop
/// control per strip for all k columns).  On a scalar machine: column
/// after column, element after element through a sim::ScalarLane, with
/// one loop-control op per element.  At k = 1 both are the single-column
/// stream, so per-column counters are the same for any k.
template <class Body>
void for_columns(sim::Vpu& vpu, std::size_t n, int k, int strip,
                 std::span<const char> active, Body&& body) {
  if (!any_active(active, k)) return;
  if (vpu.config().vector_enabled) {
    for_strips(vpu, static_cast<int>(n),
               solve_effective_strip(strip, vpu.config()), [&](int i, int) {
      for (int d = 0; d < k; ++d) {
        if (!col_active(active, d)) continue;
        const std::size_t ud = static_cast<std::size_t>(d);
        body(sim::VectorLanes{vpu, i}, ud, ud * n);
      }
    });
    return;
  }
  for (int d = 0; d < k; ++d) {
    if (!col_active(active, d)) continue;
    const std::size_t ud = static_cast<std::size_t>(d);
    for (int i = 0; i < static_cast<int>(n); ++i) {
      body(sim::ScalarLane{vpu, i}, ud, ud * n);
      vpu.sarith(1);
    }
  }
}

/// out_d = base_d + scale[d]·scaled_d for every active column (out may
/// alias either input) — the one kernel behind vaxpy, vxpby, vaxpy_multi
/// and the s / r updates of BiCGStab.
void axpby_block(sim::Vpu& vpu, std::span<const double> base,
                 std::span<const double> scale,
                 std::span<const double> scaled, std::span<double> out,
                 int k, int strip, std::span<const char> active = {}) {
  const std::size_t n = check_multi(out.size(), k, active, "axpby");
  check_len(base.size(), out.size(), "axpby");
  check_len(scaled.size(), out.size(), "axpby");
  check_len(scale.size(), static_cast<std::size_t>(k), "axpby");
  for_columns(vpu, n, k, strip, active, [&](auto l, auto d, auto off) {
    const auto vb = l.load(base.data() + off);
    const auto vs = l.load(scaled.data() + off);
    l.store(out.data() + off, l.fma_s(vs, scale[d], vb));
  });
}

}  // namespace

// ---- instrumented kernels ---------------------------------------------
// Every kernel with a multi-RHS form is written once, over k node-major
// columns; the single-RHS entry point is its k = 1 call.  The BLAS-1
// kernels are one lane body each, issued by for_columns; the SpMVs keep a
// vector and a scalar form because their scalar loops walk rows, not
// strips (DESIGN.md §5).

void vspmv_multi(sim::Vpu& vpu, const EllMatrix& a, std::span<const double> x,
                 std::span<double> y, int k, int strip,
                 std::span<const char> active) {
  const std::size_t n = check_multi(y.size(), k, active, "vspmv");
  const std::size_t nx = static_cast<std::size_t>(a.num_cols());
  check_len(n, static_cast<std::size_t>(a.rows()), "vspmv");
  check_len(x.size(), nx * static_cast<std::size_t>(k), "vspmv");
  if (!any_active(active, k)) return;
  if (!vpu.config().vector_enabled) {
    for (int d = 0; d < k; ++d) {
      if (!col_active(active, d)) continue;
      const double* xd = x.data() + static_cast<std::size_t>(d) * nx;
      double* yd = y.data() + static_cast<std::size_t>(d) * n;
      for (int r = 0; r < a.rows(); ++r) {
        double s = 0.0;
        for (int j = 0; j < a.width(); ++j) {
          const std::int32_t c = vpu.sload_i32(a.cols(j) + r);
          vpu.sarith(1);  // pad-mask test
          if (c < 0) {    // masked pad lane: skipped, zero data traffic
            vpu.note_pad_lanes(1);
            continue;
          }
          const double v = vpu.sload(a.vals(j) + r);
          const double xv = vpu.sload(xd + c);
          s = vpu.sfma(v, xv, s);
          vpu.sarith(1);
        }
        vpu.sstore(yd + r, s);
        vpu.sarith(1);
      }
    }
    return;
  }
  // Vec accumulators hold register values; this storage is never
  // vload/vstore'd, so no canonical line ever maps to it and its free
  // cannot re-alias a measured buffer.
  // vecfd-lint: allow(measured-alloc) register-value storage, never mapped
  std::vector<sim::Vec> acc(static_cast<std::size_t>(k));
  for_strips(vpu, static_cast<int>(n),
             solve_effective_strip(strip, vpu.config()), [&](int i, int) {
    for (int d = 0; d < k; ++d) {
      if (col_active(active, d)) {
        acc[static_cast<std::size_t>(d)] = vpu.vsplat(0.0);
      }
    }
    for (int j = 0; j < a.width(); ++j) {
      // ONE value/index slab load feeds every active gather/fma stream.
      const sim::Vec vv = vpu.vload(a.vals(j) + i);
      const sim::Vec idx = vpu.vload_i32(a.cols(j) + i);
      for (int d = 0; d < k; ++d) {
        if (!col_active(active, d)) continue;
        const sim::Vec xs =
            vpu.vgather(x.data() + static_cast<std::size_t>(d) * nx, idx);
        acc[static_cast<std::size_t>(d)] =
            vpu.vfma(vv, xs, acc[static_cast<std::size_t>(d)]);
        vpu.sarith(1);  // slab/stream-loop control
      }
    }
    for (int d = 0; d < k; ++d) {
      if (!col_active(active, d)) continue;
      vpu.vstore(y.data() + static_cast<std::size_t>(d) * n + i,
                 acc[static_cast<std::size_t>(d)]);
    }
  });
}

void vspmv(sim::Vpu& vpu, const EllMatrix& a, std::span<const double> x,
           std::span<double> y, int strip) {
  vspmv_multi(vpu, a, x, y, 1, strip);
}

void vspmv_multi(sim::Vpu& vpu, const SellMatrix& a,
                 std::span<const double> x, std::span<double> y, int k,
                 int strip, std::span<const char> active) {
  const std::size_t n = check_multi(y.size(), k, active, "vspmv(sell)");
  check_len(x.size(), y.size(), "vspmv(sell)");
  check_len(n, static_cast<std::size_t>(a.rows()), "vspmv(sell)");
  if (!any_active(active, k)) return;
  if (!vpu.config().vector_enabled) {
    // Scalar fallback walks lanes in slice order (the layout's memory
    // order); per-row accumulation order is CSR order, values identical.
    for (int d = 0; d < k; ++d) {
      if (!col_active(active, d)) continue;
      const double* xd = x.data() + static_cast<std::size_t>(d) * n;
      double* yd = y.data() + static_cast<std::size_t>(d) * n;
      for (int s = 0; s < a.num_slices(); ++s) {
        const int nr = a.slice_rows(s);
        const std::int32_t* ids = a.row_ids(s);
        for (int l = 0; l < nr; ++l) {
          const std::int32_t rid = vpu.sload_i32(ids + l);
          double acc = 0.0;
          for (int j = 0; j < a.slice_width(s); ++j) {
            const std::int32_t c = vpu.sload_i32(a.cols(s, j) + l);
            vpu.sarith(1);  // pad-mask test
            if (c < 0) {
              vpu.note_pad_lanes(1);
              continue;
            }
            const double v = vpu.sload(a.vals(s, j) + l);
            const double xv = vpu.sload(xd + c);
            acc = vpu.sfma(v, xv, acc);
            vpu.sarith(1);
          }
          vpu.sstore(yd + rid, acc);
          vpu.sarith(1);
        }
      }
    }
    return;
  }
  const int eff = solve_effective_strip(strip, vpu.config());
  // Vec accumulators, as above: register values only, never mapped.
  // vecfd-lint: allow(measured-alloc) register-value storage, never mapped
  std::vector<sim::Vec> acc(static_cast<std::size_t>(k));
  for (int s = 0; s < a.num_slices(); ++s) {
    const int nr = a.slice_rows(s);
    const int base = a.slice_row_base(s);
    for (int i = 0; i < nr;) {
      // vecfd-lint: allow(strip-mine-contract) slice-local strip loop: SELL
      const int vl = vpu.set_vl(std::min(eff, nr - i));
      for (int d = 0; d < k; ++d) {
        if (col_active(active, d)) {
          acc[static_cast<std::size_t>(d)] = vpu.vsplat(0.0);
        }
      }
      for (int j = 0; j < a.slice_width(s); ++j) {
        // ONE value (and, off the fast path, index) slab load feeds every
        // active stream — the same sharing lever as the ELL kernel.
        const sim::Vec vv = vpu.vload(a.vals(s, j) + i);
        const int c0 = a.coalesced_col(s, j);
        sim::Vec idx;
        if (c0 < 0) idx = vpu.vload_i32(a.cols(s, j) + i);
        for (int d = 0; d < k; ++d) {
          if (!col_active(active, d)) continue;
          const double* xd = x.data() + static_cast<std::size_t>(d) * n;
          sim::Vec xs;
          if (c0 >= 0) {
            // coalescing fast path: the slab's columns are the unit run
            // c0+i .. c0+i+vl−1, so the gather degenerates to a vload
            xs = vpu.vload(xd + c0 + i);
            vpu.note_coalesced_lanes(static_cast<std::uint64_t>(vl));
          } else {
            xs = vpu.vgather(xd, idx);
          }
          acc[static_cast<std::size_t>(d)] =
              vpu.vfma(vv, xs, acc[static_cast<std::size_t>(d)]);
          vpu.sarith(1);  // slab/stream-loop control
        }
      }
      if (base >= 0) {
        for (int d = 0; d < k; ++d) {
          if (!col_active(active, d)) continue;
          vpu.vstore(y.data() + static_cast<std::size_t>(d) * n + base + i,
                     acc[static_cast<std::size_t>(d)]);
        }
      } else {
        const sim::Vec ridx = vpu.vload_i32(a.row_ids(s) + i);
        for (int d = 0; d < k; ++d) {
          if (!col_active(active, d)) continue;
          vpu.vscatter(y.data() + static_cast<std::size_t>(d) * n, ridx,
                       acc[static_cast<std::size_t>(d)]);
        }
      }
      vpu.sarith(2);  // strip bump + loop bound check
      i += vl;
    }
    vpu.sarith(1);  // slice-loop control
  }
}

void vspmv(sim::Vpu& vpu, const SellMatrix& a, std::span<const double> x,
           std::span<double> y, int strip) {
  vspmv_multi(vpu, a, x, y, 1, strip);
}

// CsrMatrix stores `int` indices; the Vpu's index loads take int32_t.  The
// two are the same type on every supported ABI — assert it so a port to an
// ILP64-style ABI fails loudly here instead of corrupting index loads.
static_assert(sizeof(int) == sizeof(std::int32_t),
              "csr-host SpMV assumes 32-bit int column indices");

void vspmv(sim::Vpu& vpu, const CsrMatrix& a, std::span<const double> x,
           std::span<double> y) {
  const int n = a.rows();
  check_len(x.size(), static_cast<std::size_t>(n), "vspmv(csr)");
  check_len(y.size(), static_cast<std::size_t>(n), "vspmv(csr)");
  for (int r = 0; r < n; ++r) {
    const auto cs = a.row_cols(r);
    const auto vs = a.row_vals(r);
    double s = 0.0;
    for (std::size_t k = 0; k < cs.size(); ++k) {
      const double v = vpu.sload(vs.data() + k);
      const std::int32_t c = vpu.sload_i32(
          reinterpret_cast<const std::int32_t*>(cs.data()) + k);
      const double xv = vpu.sload(x.data() + c);
      s = vpu.sfma(v, xv, s);
      vpu.sarith(1);
    }
    vpu.sstore(y.data() + r, s);
    vpu.sarith(1);
  }
}

void OperatorMirror::assign(const CsrMatrix& a, SpmvFormat format,
                            int slice_height) {
  format_ = format;
  rows_ = a.rows();
  csr_ = &a;
  switch (format_) {
    case SpmvFormat::kCsrHost:
      break;  // no mirror: apply() streams the host arrays
    case SpmvFormat::kEll:
      ell_.assign(a);
      break;
    case SpmvFormat::kSell:
      sell_.assign(a, slice_height);
      break;
  }
}

void OperatorMirror::apply(sim::Vpu& vpu, std::span<const double> x,
                           std::span<double> y, int strip) const {
  apply_multi(vpu, x, y, 1, strip);
}

void OperatorMirror::apply_multi(sim::Vpu& vpu, std::span<const double> x,
                                 std::span<double> y, int k, int strip,
                                 std::span<const char> active) const {
  switch (format_) {
    case SpmvFormat::kCsrHost: {
      const std::size_t n = check_multi(y.size(), k, active, "vspmv(csr)");
      check_len(x.size(), y.size(), "vspmv(csr)");
      for (int d = 0; d < k; ++d) {
        if (!col_active(active, d)) continue;
        const std::size_t off = static_cast<std::size_t>(d) * n;
        vspmv(vpu, *csr_, x.subspan(off, n), y.subspan(off, n));
      }
      return;
    }
    case SpmvFormat::kEll:
      vspmv_multi(vpu, ell_, x, y, k, strip, active);
      return;
    case SpmvFormat::kSell:
      vspmv_multi(vpu, sell_, x, y, k, strip, active);
      return;
  }
}

void vdot_multi(sim::Vpu& vpu, std::span<const double> a,
                std::span<const double> b, int k, std::span<double> out,
                int strip, std::span<const char> active) {
  const std::size_t n = check_multi(a.size(), k, active, "vdot");
  check_len(b.size(), a.size(), "vdot");
  check_len(out.size(), static_cast<std::size_t>(k), "vdot");
  for (int d = 0; d < k; ++d) {
    if (col_active(active, d)) out[static_cast<std::size_t>(d)] = 0.0;
  }
  for_columns(vpu, n, k, strip, active, [&](auto l, auto d, auto off) {
    const auto va = l.load(a.data() + off);
    const auto vb = l.load(b.data() + off);
    out[d] = l.dot_acc(out[d], va, vb);
  });
}

double vdot(sim::Vpu& vpu, std::span<const double> a,
            std::span<const double> b, int strip) {
  double s = 0.0;
  vdot_multi(vpu, a, b, 1, std::span<double>(&s, 1), strip);
  return s;
}

double vnorm2(sim::Vpu& vpu, std::span<const double> a, int strip) {
  const std::size_t n = a.size();
  // The ‖a‖∞ scan keeps two forms: the vector strip pays one extra
  // loop-control op for its vredmax, and the scalar fabs is free.
  const auto abs_max = [&](auto&& max_into) {
    if (vpu.config().vector_enabled) {
      for_strips(vpu, static_cast<int>(n),
                 solve_effective_strip(strip, vpu.config()), [&](int i, int) {
        max_into(vpu.vredmax(vpu.vabs(vpu.vload(a.data() + i))));
        vpu.sarith(1);
      });
    } else {
      for (std::size_t i = 0; i < n; ++i) {
        max_into(std::fabs(vpu.sload(a.data() + i)));
        vpu.sarith(1);
      }
    }
  };
  const auto scaled_sum_sq = [&](double m) {
    double ssq = 0.0;
    for_columns(vpu, n, 1, strip, {}, [&](auto l, auto, auto) {
      const auto vm = l.splat(m);
      const auto va = l.load(a.data());
      const auto q = l.div(va, vm);
      ssq = l.dot_acc(ssq, q, q);
    });
    return ssq;
  };
  return norm2_rescan(
      vpu, [&] { return vdot(vpu, a, a, strip); }, abs_max, scaled_sum_sq);
}

void vaxpy(sim::Vpu& vpu, double alpha, std::span<const double> x,
           std::span<double> y, int strip) {
  axpby_block(vpu, y, std::span<const double>(&alpha, 1), x, y, 1, strip);
}

void vxpby(sim::Vpu& vpu, std::span<const double> x, double beta,
           std::span<double> y, int strip) {
  axpby_block(vpu, x, std::span<const double>(&beta, 1), y, y, 1, strip);
}

void vaxpy_multi(sim::Vpu& vpu, std::span<const double> alpha,
                 std::span<const double> x, std::span<double> y, int k,
                 int strip, std::span<const char> active) {
  axpby_block(vpu, y, alpha, x, y, k, strip, active);
}

void vsub_multi(sim::Vpu& vpu, std::span<const double> a,
                std::span<const double> b, std::span<double> out, int k,
                int strip, std::span<const char> active) {
  const std::size_t n = check_multi(out.size(), k, active, "vsub");
  check_len(a.size(), out.size(), "vsub");
  check_len(b.size(), out.size(), "vsub");
  for_columns(vpu, n, k, strip, active, [&](auto l, auto, auto off) {
    const auto va = l.load(a.data() + off);
    const auto vb = l.load(b.data() + off);
    l.store(out.data() + off, l.sub(va, vb));
  });
}

void vsub(sim::Vpu& vpu, std::span<const double> a, std::span<const double> b,
          std::span<double> out, int strip) {
  vsub_multi(vpu, a, b, out, 1, strip);
}

void vcopy_multi(sim::Vpu& vpu, std::span<const double> src,
                 std::span<double> dst, int k, int strip,
                 std::span<const char> active) {
  const std::size_t n = check_multi(dst.size(), k, active, "vcopy");
  check_len(src.size(), dst.size(), "vcopy");
  for_columns(vpu, n, k, strip, active, [&](auto l, auto, auto off) {
    l.store(dst.data() + off, l.load(src.data() + off));
  });
}

void vcopy(sim::Vpu& vpu, std::span<const double> src, std::span<double> dst,
           int strip) {
  vcopy_multi(vpu, src, dst, 1, strip);
}

void vscal(sim::Vpu& vpu, double alpha, std::span<double> x, int strip) {
  for_columns(vpu, x.size(), 1, strip, {}, [&](auto l, auto, auto) {
    l.store(x.data(), l.mul_s(l.load(x.data()), alpha));
  });
}

void vfill(sim::Vpu& vpu, std::span<double> dst, double value, int strip) {
  for_columns(vpu, dst.size(), 1, strip, {}, [&](auto l, auto, auto) {
    l.store(dst.data(), l.splat(value));
  });
}

void vjacobi_apply_multi(sim::Vpu& vpu, std::span<const double> dinv,
                         std::span<const double> r, std::span<double> z,
                         int k, int strip, std::span<const char> active) {
  if (dinv.empty()) {
    vcopy_multi(vpu, r, z, k, strip, active);
    return;
  }
  const std::size_t n = check_multi(z.size(), k, active, "vjacobi_apply");
  check_len(r.size(), z.size(), "vjacobi_apply");
  check_len(dinv.size(), n, "vjacobi_apply");
  for_columns(vpu, n, k, strip, active, [&](auto l, auto, auto off) {
    const auto vd = l.load(dinv.data());
    const auto vr = l.load(r.data() + off);
    l.store(z.data() + off, l.mul(vd, vr));
  });
}

void vjacobi_apply(sim::Vpu& vpu, std::span<const double> dinv,
                   std::span<const double> r, std::span<double> z,
                   int strip) {
  vjacobi_apply_multi(vpu, dinv, r, z, 1, strip);
}

void vpack_strided(sim::Vpu& vpu, const double* base, std::ptrdiff_t stride,
                   std::span<double> out, int strip) {
  for_columns(vpu, out.size(), 1, strip, {}, [&](auto l, auto, auto) {
    l.store(out.data(), l.load_strided(base, stride));
  });
}

namespace {

/// Blocked BiCGStab direction update: restart columns take P_d = R_d, the
/// rest P_d = R_d + beta[d]·(P_d − omega[d]·V_d).
void bicgstab_p_update_multi(sim::Vpu& vpu, std::span<const double> r,
                             std::span<const double> beta,
                             std::span<const double> omega,
                             std::span<const double> v, std::span<double> p,
                             int k, std::span<const char> restart, int strip,
                             std::span<const char> active) {
  const std::size_t n = check_multi(p.size(), k, active,
                                    "bicgstab_p_update");
  for_columns(vpu, n, k, strip, active, [&](auto l, auto d, auto off) {
    if (restart[d]) {
      l.store(p.data() + off, l.load(r.data() + off));
      return;
    }
    const auto vp = l.load(p.data() + off);
    const auto vv = l.load(v.data() + off);
    const auto vr = l.load(r.data() + off);
    const auto tmp = l.fma_s(vv, -omega[d], vp);
    l.store(p.data() + off, l.fma_s(tmp, beta[d], vr));
  });
}

/// The single-Vpu execution space of cg_recurrence: every operation is
/// issued on one Vpu over the workspace vectors (q holds Ap).
struct VpuSpace {
  sim::Vpu& vpu;
  const CsrMatrix& a;
  std::span<const double> b;
  std::span<double> x;
  int strip;
  KrylovWorkspace& ws;
  SpmvFormat format;

  sim::Vpu& scalar() { return vpu; }
  double norm2_b() { return vnorm2(vpu, b, strip); }
  double norm2_r() { return vnorm2(vpu, ws.r, strip); }
  void zero_x() { vfill(vpu, x, 0.0, strip); }

  void prepare() {
    ws.op.assign(a, format, mirror_slice_height(strip, vpu.config()));
    ws.r.assign(b.size(), 0.0);
    ws.z.assign(b.size(), 0.0);
    ws.p.assign(b.size(), 0.0);
    ws.q.assign(b.size(), 0.0);
  }

  // The ladder rung (solver/preconditioner.h).  kJacobi issues no setup
  // instructions, so that rung's stream is bit-identical to the historic
  // inline-Jacobi vcg; kCheby's power iterations run here, inside the
  // caller's phase scope, so eigenvalue estimation is counter-priced.
  void setup_precond(const SolveOptions& opts) {
    if (!ws.precond) ws.precond = std::make_shared<Preconditioner>();
    ws.precond->setup(vpu, a, ws.op, opts, strip);
  }

  void residual() {
    ws.op.apply(vpu, x, ws.r, strip);
    vsub(vpu, b, ws.r, ws.r, strip);
  }

  double precond(bool init) {
    ws.precond->apply(vpu, ws.r, ws.z, strip);
    if (init) vcopy(vpu, ws.z, ws.p, strip);
    return vdot(vpu, ws.r, ws.z, strip);
  }

  double apply_p() {
    ws.op.apply(vpu, ws.p, ws.q, strip);
    return vdot(vpu, ws.p, ws.q, strip);
  }

  void update_xr(double alpha) {
    vaxpy(vpu, alpha, ws.p, x, strip);
    vaxpy(vpu, -alpha, ws.q, ws.r, strip);
  }

  void update_p(double beta) { vxpby(vpu, ws.z, beta, ws.p, strip); }

  SolveReport finish(SolveReport& rep) { return checked(rep); }
};

}  // namespace

SolveReport vcg(sim::Vpu& vpu, const CsrMatrix& a, std::span<const double> b,
                std::span<double> x, const SolveOptions& opts, int strip,
                KrylovWorkspace* ws, SpmvFormat format) {
  const std::size_t n = b.size();
  if (static_cast<int>(n) != a.rows() || x.size() != n) {
    throw std::invalid_argument("vcg: dimension mismatch");
  }
  KrylovWorkspace local;
  VpuSpace sp{vpu, a, b, x, strip, ws != nullptr ? *ws : local, format};
  return cg_recurrence(sp, opts);
}

namespace {

/// The single-Vpu execution space of bicgstab_recurrence: k columns on one
/// Vpu, the block operations issued through the fused multi kernels.
struct VpuBlockSpace {
  sim::Vpu& vpu;
  const CsrMatrix& a;
  std::span<const double> b;
  std::span<double> x;
  int k;
  int strip;
  KrylovWorkspace& ws;
  SpmvFormat format;
  std::vector<double>&R = ws.r, &R0 = ws.z, &P = ws.p, &V = ws.q;
  std::vector<double>&S = ws.s, &T = ws.t, &Phat = ws.u, &Shat = ws.w;

  sim::Vpu& scalar() { return vpu; }
  double norm2(std::span<const double> v) { return vnorm2(vpu, v, strip); }
  double dot(std::span<const double> u, std::span<const double> v) {
    return vdot(vpu, u, v, strip);
  }
  void zero(std::span<double> v) { vfill(vpu, v, 0.0, strip); }
  void copy(std::span<const double> src, std::span<double> dst) {
    vcopy(vpu, src, dst, strip);
  }
  void axpy(double alpha, std::span<const double> v, std::span<double> y) {
    vaxpy(vpu, alpha, v, y, strip);
  }
  void residual(std::span<const double> xd, std::span<const double> bd,
                std::span<double> rd) {
    ws.op.apply(vpu, xd, rd, strip);
    vsub(vpu, bd, rd, rd, strip);
  }

  void prepare() {
    ws.op.assign(a, format, mirror_slice_height(strip, vpu.config()));
  }
  void setup_precond(const SolveOptions& opts) {
    if (opts.precond.kind != PrecondKind::kNone) {
      jacobi_inverse_diagonal_into(a, ws.dinv);
    } else {
      ws.dinv.clear();
    }
  }

  void residual_block(std::span<const char> active) {
    ws.op.apply_multi(vpu, x, R, k, strip, active);
    vsub_multi(vpu, b, R, R, k, strip, active);
  }
  void apply_block(std::span<const double> src, std::span<double> dst,
                   std::span<const char> active) {
    ws.op.apply_multi(vpu, src, dst, k, strip, active);
  }
  void precond_block(std::span<const double> src, std::span<double> dst,
                     std::span<const char> active) {
    vjacobi_apply_multi(vpu, ws.dinv, src, dst, k, strip, active);
  }
  void copy_block(std::span<const double> src, std::span<double> dst,
                  std::span<const char> active) {
    vcopy_multi(vpu, src, dst, k, strip, active);
  }
  void dot_block(std::span<const double> u, std::span<const double> v,
                 std::span<double> out, std::span<const char> active) {
    vdot_multi(vpu, u, v, k, out, strip, active);
  }
  void axpby_block(std::span<const double> base, std::span<const double> scale,
                   std::span<const double> scaled, std::span<double> out,
                   std::span<const char> active) {
    solver::axpby_block(vpu, base, scale, scaled, out, k, strip, active);
  }
  void p_update_block(std::span<const double> beta,
                      std::span<const double> omega,
                      std::span<const char> restart,
                      std::span<const char> active) {
    bicgstab_p_update_multi(vpu, R, beta, omega, V, P, k, restart, strip,
                            active);
  }
  void update_x(std::span<const double> alpha, std::span<const double> omega,
                std::span<const char> active) {
    vaxpy_multi(vpu, alpha, Phat, x, k, strip, active);
    vaxpy_multi(vpu, omega, Shat, x, k, strip, active);
  }
};

std::vector<SolveReport> vbicgstab_block(
    sim::Vpu& vpu, const CsrMatrix& a, std::span<const double> b,
    std::span<double> x, int k, const SolveOptions& opts, int strip,
    KrylovWorkspace* ws, SpmvFormat format, const char* who) {
  if (k <= 0) {
    throw std::invalid_argument(std::string(who) + ": k must be positive");
  }
  const std::size_t cells =
      static_cast<std::size_t>(a.rows()) * static_cast<std::size_t>(k);
  if (b.size() != cells || x.size() != cells) {
    throw std::invalid_argument(std::string(who) + ": dimension mismatch");
  }
  require_jacobi_rung(opts, who);
  KrylovWorkspace local;
  VpuBlockSpace sp{vpu, a, b, x, k, strip, ws != nullptr ? *ws : local,
                   format};
  return bicgstab_recurrence(sp, opts);
}

}  // namespace

SolveReport vbicgstab(sim::Vpu& vpu, const CsrMatrix& a,
                      std::span<const double> b, std::span<double> x,
                      const SolveOptions& opts, int strip,
                      KrylovWorkspace* ws, SpmvFormat format) {
  return checked(vbicgstab_block(vpu, a, b, x, 1, opts, strip, ws, format,
                                 "vbicgstab")
                     .front());
}

std::vector<SolveReport> vbicgstab_multi(sim::Vpu& vpu, const CsrMatrix& a,
                                         std::span<const double> b,
                                         std::span<double> x, int k,
                                         const SolveOptions& opts, int strip,
                                         KrylovWorkspace* ws,
                                         SpmvFormat format) {
  return vbicgstab_block(vpu, a, b, x, k, opts, strip, ws, format,
                         "vbicgstab_multi");
}

}  // namespace vecfd::solver
