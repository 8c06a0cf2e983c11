#include "solver/vkernels.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "solver/cg_recurrence.h"
#include "solver/preconditioner.h"

namespace vecfd::solver {

int solve_effective_strip(int requested, const sim::MachineConfig& machine) {
  if (!machine.vector_enabled) return requested;  // scalar loops honour it
  return requested <= 0 || requested > machine.vlmax ? machine.vlmax
                                                     : requested;
}

namespace {

bool vector_path(const sim::Vpu& vpu) { return vpu.config().vector_enabled; }

int effective_strip(const sim::Vpu& vpu, int strip) {
  return solve_effective_strip(strip, vpu.config());
}

// for_strips — the canonical strip-miner — now lives in vkernels.h so the
// preconditioner kernels share it.

void check_len(std::size_t got, std::size_t want, const char* what) {
  if (got != want) {
    throw std::invalid_argument(std::string(what) + ": dimension mismatch");
  }
}

/// out = base + scale·scaled (out may alias either input).
void axpby_into(sim::Vpu& vpu, std::span<const double> base, double scale,
                std::span<const double> scaled, std::span<double> out,
                int strip) {
  const int n = static_cast<int>(out.size());
  check_len(base.size(), out.size(), "axpby_into");
  check_len(scaled.size(), out.size(), "axpby_into");
  if (vector_path(vpu)) {
    for_strips(vpu, n, effective_strip(vpu, strip), [&](int i, int) {
      const sim::Vec vb = vpu.vload(base.data() + i);
      const sim::Vec vs = vpu.vload(scaled.data() + i);
      vpu.vstore(out.data() + i, vpu.vfma_s(vs, scale, vb));
    });
  } else {
    for (int i = 0; i < n; ++i) {
      const double bi = vpu.sload(base.data() + i);
      const double si = vpu.sload(scaled.data() + i);
      vpu.sstore(out.data() + i, vpu.sfma(si, scale, bi));
      vpu.sarith(1);
    }
  }
}

/// p = r + beta·(p − omega·v), the BiCGStab direction update.
void bicgstab_p_update(sim::Vpu& vpu, std::span<const double> r, double beta,
                       double omega, std::span<const double> v,
                       std::span<double> p, int strip) {
  const int n = static_cast<int>(p.size());
  if (vector_path(vpu)) {
    for_strips(vpu, n, effective_strip(vpu, strip), [&](int i, int) {
      const sim::Vec vp = vpu.vload(p.data() + i);
      const sim::Vec vv = vpu.vload(v.data() + i);
      const sim::Vec vr = vpu.vload(r.data() + i);
      const sim::Vec tmp = vpu.vfma_s(vv, -omega, vp);
      vpu.vstore(p.data() + i, vpu.vfma_s(tmp, beta, vr));
    });
  } else {
    for (int i = 0; i < n; ++i) {
      const double pi = vpu.sload(p.data() + i);
      const double vi = vpu.sload(v.data() + i);
      const double ri = vpu.sload(r.data() + i);
      vpu.sstore(p.data() + i, vpu.sfma(vpu.sfma(vi, -omega, pi), beta, ri));
      vpu.sarith(1);
    }
  }
}

/// SELL slice height for a solver-built mirror: the effective strip, with
/// a fixed fallback for the degenerate scalar-machine strip<=0 request
/// (layout only — the scalar fallback walks lanes either way).
int mirror_slice_height(int strip, const sim::MachineConfig& m) {
  const int eff = solve_effective_strip(strip, m);
  return eff > 0 ? eff : 64;
}

/// Breakdown exit (record_breakdown), residual computed through the Vpu
/// so the exit stays instrumented.
SolveReport& vbreakdown_exit(sim::Vpu& vpu, SolveReport& rep, int it,
                             std::span<const double> r, double bnorm,
                             const SolveOptions& opts, int strip) {
  return checked(record_breakdown(
      rep, it, vpu.sdiv(vnorm2(vpu, r, strip), bnorm), opts.rel_tolerance));
}

/// Instrumented failure exit (SolveReport::failure, see krylov.h): the
/// preconditioner could not be built, the solve never ran, x is untouched.
/// The true residual of that iterate is computed through the Vpu so even
/// the failure path stays counter-priced; @p r is workspace scratch.
SolveReport& vfailure_exit(sim::Vpu& vpu, SolveReport& rep, const char* why,
                           const OperatorMirror& op, std::span<const double> b,
                           std::span<const double> x, std::span<double> r,
                           double bnorm, const SolveOptions& opts, int strip) {
  op.apply(vpu, x, r, strip);
  vsub(vpu, b, r, r, strip);
  const double rel0 = vpu.sdiv(vnorm2(vpu, r, strip), bnorm);
  return checked(record_failure(rep, why, rel0, opts.rel_tolerance));
}

}  // namespace

void vspmv(sim::Vpu& vpu, const EllMatrix& a, std::span<const double> x,
           std::span<double> y, int strip) {
  const int n = a.rows();
  check_len(x.size(), static_cast<std::size_t>(a.num_cols()), "vspmv");
  check_len(y.size(), static_cast<std::size_t>(n), "vspmv");
  if (vector_path(vpu)) {
    for_strips(vpu, n, effective_strip(vpu, strip), [&](int i, int) {
      sim::Vec acc = vpu.vsplat(0.0);
      for (int j = 0; j < a.width(); ++j) {
        const sim::Vec vv = vpu.vload(a.vals(j) + i);
        const sim::Vec idx = vpu.vload_i32(a.cols(j) + i);
        const sim::Vec xs = vpu.vgather(x.data(), idx);
        acc = vpu.vfma(vv, xs, acc);
        vpu.sarith(1);  // slab-loop control
      }
      vpu.vstore(y.data() + i, acc);
    });
  } else {
    for (int r = 0; r < n; ++r) {
      double s = 0.0;
      for (int j = 0; j < a.width(); ++j) {
        const std::int32_t c = vpu.sload_i32(a.cols(j) + r);
        vpu.sarith(1);  // pad-mask test
        if (c < 0) {    // masked pad lane: skipped, zero data traffic
          vpu.note_pad_lanes(1);
          continue;
        }
        const double v = vpu.sload(a.vals(j) + r);
        const double xv = vpu.sload(x.data() + c);
        s = vpu.sfma(v, xv, s);
        vpu.sarith(1);
      }
      vpu.sstore(y.data() + r, s);
      vpu.sarith(1);
    }
  }
}

void vspmv(sim::Vpu& vpu, const SellMatrix& a, std::span<const double> x,
           std::span<double> y, int strip) {
  const int n = a.rows();
  check_len(x.size(), static_cast<std::size_t>(n), "vspmv(sell)");
  check_len(y.size(), static_cast<std::size_t>(n), "vspmv(sell)");
  if (!vector_path(vpu)) {
    // Scalar fallback walks lanes in slice order (the layout's memory
    // order); per-row accumulation order is CSR order, values identical.
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
          const double xv = vpu.sload(x.data() + c);
          acc = vpu.sfma(v, xv, acc);
          vpu.sarith(1);
        }
        vpu.sstore(y.data() + rid, acc);
        vpu.sarith(1);
      }
    }
    return;
  }
  const int eff = effective_strip(vpu, strip);
  for (int s = 0; s < a.num_slices(); ++s) {
    const int nr = a.slice_rows(s);
    const int base = a.slice_row_base(s);
    for (int i = 0; i < nr;) {
      // vecfd-lint: allow(strip-mine-contract) slice-local strip loop: SELL
      const int vl = vpu.set_vl(std::min(eff, nr - i));
      sim::Vec acc = vpu.vsplat(0.0);
      for (int j = 0; j < a.slice_width(s); ++j) {
        const sim::Vec vv = vpu.vload(a.vals(s, j) + i);
        const int c0 = a.coalesced_col(s, j);
        sim::Vec xs;
        if (c0 >= 0) {
          // coalescing fast path: the slab's columns are the unit run
          // c0+i .. c0+i+vl−1, so the gather degenerates to a vload
          xs = vpu.vload(x.data() + c0 + i);
          vpu.note_coalesced_lanes(static_cast<std::uint64_t>(vl));
        } else {
          const sim::Vec idx = vpu.vload_i32(a.cols(s, j) + i);
          xs = vpu.vgather(x.data(), idx);
        }
        acc = vpu.vfma(vv, xs, acc);
        vpu.sarith(1);  // slab-loop control
      }
      if (base >= 0) {
        vpu.vstore(y.data() + base + i, acc);
      } else {
        const sim::Vec ridx = vpu.vload_i32(a.row_ids(s) + i);
        vpu.vscatter(y.data(), ridx, acc);
      }
      vpu.sarith(2);  // strip bump + loop bound check
      i += vl;
    }
    vpu.sarith(1);  // slice-loop control
  }
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
  switch (format_) {
    case SpmvFormat::kCsrHost: vspmv(vpu, *csr_, x, y); return;
    case SpmvFormat::kEll:     vspmv(vpu, ell_, x, y, strip); return;
    case SpmvFormat::kSell:    vspmv(vpu, sell_, x, y, strip); return;
  }
}

double vdot(sim::Vpu& vpu, std::span<const double> a,
            std::span<const double> b, int strip) {
  check_len(b.size(), a.size(), "vdot");
  const int n = static_cast<int>(a.size());
  double s = 0.0;
  if (vector_path(vpu)) {
    for_strips(vpu, n, effective_strip(vpu, strip), [&](int i, int) {
      const sim::Vec va = vpu.vload(a.data() + i);
      const sim::Vec vb = vpu.vload(b.data() + i);
      s = vpu.sadd(s, vpu.vredsum(vpu.vmul(va, vb)));
    });
  } else {
    for (int i = 0; i < n; ++i) {
      const double ai = vpu.sload(a.data() + i);
      const double bi = vpu.sload(b.data() + i);
      s = vpu.sfma(ai, bi, s);
      vpu.sarith(1);
    }
  }
  return s;
}

double vnorm2(sim::Vpu& vpu, std::span<const double> a, int strip) {
  const int n = static_cast<int>(a.size());
  const auto abs_max = [&](auto&& max_into) {
    if (vector_path(vpu)) {
      for_strips(vpu, n, effective_strip(vpu, strip), [&](int i, int) {
        max_into(vpu.vredmax(vpu.vabs(vpu.vload(a.data() + i))));
        vpu.sarith(1);
      });
    } else {
      for (int i = 0; i < n; ++i) {
        max_into(std::fabs(vpu.sload(a.data() + i)));
        vpu.sarith(1);
      }
    }
  };
  const auto scaled_sum_sq = [&](double m) {
    double ssq = 0.0;
    if (vector_path(vpu)) {
      for_strips(vpu, n, effective_strip(vpu, strip), [&](int i, int) {
        const sim::Vec q = vpu.vdiv(vpu.vload(a.data() + i), vpu.vsplat(m));
        ssq = vpu.sadd(ssq, vpu.vredsum(vpu.vmul(q, q)));
      });
    } else {
      for (int i = 0; i < n; ++i) {
        const double q = vpu.sdiv(vpu.sload(a.data() + i), m);
        ssq = vpu.sfma(q, q, ssq);
        vpu.sarith(1);
      }
    }
    return ssq;
  };
  return norm2_rescan(
      vpu, [&] { return vdot(vpu, a, a, strip); }, abs_max, scaled_sum_sq);
}

void vaxpy(sim::Vpu& vpu, double alpha, std::span<const double> x,
           std::span<double> y, int strip) {
  axpby_into(vpu, y, alpha, x, y, strip);
}

void vxpby(sim::Vpu& vpu, std::span<const double> x, double beta,
           std::span<double> y, int strip) {
  axpby_into(vpu, x, beta, y, y, strip);
}

void vsub(sim::Vpu& vpu, std::span<const double> a, std::span<const double> b,
          std::span<double> out, int strip) {
  check_len(a.size(), out.size(), "vsub");
  check_len(b.size(), out.size(), "vsub");
  const int n = static_cast<int>(out.size());
  if (vector_path(vpu)) {
    for_strips(vpu, n, effective_strip(vpu, strip), [&](int i, int) {
      const sim::Vec va = vpu.vload(a.data() + i);
      const sim::Vec vb = vpu.vload(b.data() + i);
      vpu.vstore(out.data() + i, vpu.vsub(va, vb));
    });
  } else {
    for (int i = 0; i < n; ++i) {
      const double ai = vpu.sload(a.data() + i);
      const double bi = vpu.sload(b.data() + i);
      vpu.sstore(out.data() + i, vpu.ssub(ai, bi));
      vpu.sarith(1);
    }
  }
}

void vcopy(sim::Vpu& vpu, std::span<const double> src, std::span<double> dst,
           int strip) {
  check_len(src.size(), dst.size(), "vcopy");
  const int n = static_cast<int>(dst.size());
  if (vector_path(vpu)) {
    for_strips(vpu, n, effective_strip(vpu, strip), [&](int i, int) {
      vpu.vstore(dst.data() + i, vpu.vload(src.data() + i));
    });
  } else {
    for (int i = 0; i < n; ++i) {
      vpu.sstore(dst.data() + i, vpu.sload(src.data() + i));
      vpu.sarith(1);
    }
  }
}

void vscal(sim::Vpu& vpu, double alpha, std::span<double> x, int strip) {
  const int n = static_cast<int>(x.size());
  if (vector_path(vpu)) {
    for_strips(vpu, n, effective_strip(vpu, strip), [&](int i, int) {
      vpu.vstore(x.data() + i, vpu.vmul_s(vpu.vload(x.data() + i), alpha));
    });
  } else {
    for (int i = 0; i < n; ++i) {
      vpu.sstore(x.data() + i, vpu.smul(vpu.sload(x.data() + i), alpha));
      vpu.sarith(1);
    }
  }
}

void vfill(sim::Vpu& vpu, std::span<double> dst, double value, int strip) {
  const int n = static_cast<int>(dst.size());
  if (vector_path(vpu)) {
    for_strips(vpu, n, effective_strip(vpu, strip), [&](int i, int) {
      vpu.vstore(dst.data() + i, vpu.vsplat(value));
    });
  } else {
    for (int i = 0; i < n; ++i) {
      vpu.sstore(dst.data() + i, value);
      vpu.sarith(1);
    }
  }
}

void vjacobi_apply(sim::Vpu& vpu, std::span<const double> dinv,
                   std::span<const double> r, std::span<double> z,
                   int strip) {
  if (dinv.empty()) {
    vcopy(vpu, r, z, strip);
    return;
  }
  check_len(dinv.size(), r.size(), "vjacobi_apply");
  check_len(z.size(), r.size(), "vjacobi_apply");
  const int n = static_cast<int>(r.size());
  if (vector_path(vpu)) {
    for_strips(vpu, n, effective_strip(vpu, strip), [&](int i, int) {
      const sim::Vec vd = vpu.vload(dinv.data() + i);
      const sim::Vec vr = vpu.vload(r.data() + i);
      vpu.vstore(z.data() + i, vpu.vmul(vd, vr));
    });
  } else {
    for (int i = 0; i < n; ++i) {
      const double di = vpu.sload(dinv.data() + i);
      const double ri = vpu.sload(r.data() + i);
      vpu.sstore(z.data() + i, vpu.smul(di, ri));
      vpu.sarith(1);
    }
  }
}

void vpack_strided(sim::Vpu& vpu, const double* base, std::ptrdiff_t stride,
                   std::span<double> out, int strip) {
  const int n = static_cast<int>(out.size());
  if (vector_path(vpu)) {
    for_strips(vpu, n, effective_strip(vpu, strip), [&](int i, int) {
      const sim::Vec v = vpu.vload_strided(base + stride * i, stride);
      vpu.vstore(out.data() + i, v);
    });
  } else {
    for (int i = 0; i < n; ++i) {
      vpu.sstore(out.data() + i, vpu.sload(base + stride * i));
      vpu.sarith(1);
    }
  }
}

// ---- multi-RHS (blocked) kernels --------------------------------------
// Per-column instruction sequences are kept identical to the single-RHS
// kernels above (same loads, same FMA order), so per-column results are
// bit-for-bit equal; the fusion shares the strip loop and — in vspmv_multi
// — the operator value/index slab loads across all active columns.

namespace {

bool col_active(std::span<const char> active, int d) {
  return active.empty() || active[static_cast<std::size_t>(d)] != 0;
}

bool any_active(std::span<const char> active, int k) {
  for (int d = 0; d < k; ++d) {
    if (col_active(active, d)) return true;
  }
  return false;
}

/// Common multi-kernel argument validation; returns the column length n.
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

}  // namespace

void vspmv_multi(sim::Vpu& vpu, const EllMatrix& a, std::span<const double> x,
                 std::span<double> y, int k, int strip,
                 std::span<const char> active) {
  const std::size_t n = check_multi(y.size(), k, active, "vspmv_multi");
  check_len(x.size(), y.size(), "vspmv_multi");
  check_len(n, static_cast<std::size_t>(a.rows()), "vspmv_multi");
  if (!any_active(active, k)) return;
  if (!vector_path(vpu) || k == 1) {
    for (int d = 0; d < k; ++d) {
      if (!col_active(active, d)) continue;
      const std::size_t off = static_cast<std::size_t>(d) * n;
      vspmv(vpu, a, x.subspan(off, n), y.subspan(off, n), strip);
    }
    return;
  }
  // Vec accumulators hold register values; this storage is never
  // vload/vstore'd, so no canonical line ever maps to it and its free
  // cannot re-alias a measured buffer.
  // vecfd-lint: allow(measured-alloc) register-value storage, never mapped
  std::vector<sim::Vec> acc(static_cast<std::size_t>(k));
  for_strips(vpu, static_cast<int>(n), effective_strip(vpu, strip),
             [&](int i, int) {
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
            vpu.vgather(x.data() + static_cast<std::size_t>(d) * n, idx);
        acc[static_cast<std::size_t>(d)] =
            vpu.vfma(vv, xs, acc[static_cast<std::size_t>(d)]);
        vpu.sarith(1);  // stream-loop control
      }
    }
    for (int d = 0; d < k; ++d) {
      if (!col_active(active, d)) continue;
      vpu.vstore(y.data() + static_cast<std::size_t>(d) * n + i,
                 acc[static_cast<std::size_t>(d)]);
    }
  });
}

void vspmv_multi(sim::Vpu& vpu, const SellMatrix& a,
                 std::span<const double> x, std::span<double> y, int k,
                 int strip, std::span<const char> active) {
  const std::size_t n = check_multi(y.size(), k, active, "vspmv_multi(sell)");
  check_len(x.size(), y.size(), "vspmv_multi(sell)");
  check_len(n, static_cast<std::size_t>(a.rows()), "vspmv_multi(sell)");
  if (!any_active(active, k)) return;
  if (!vector_path(vpu) || k == 1) {
    for (int d = 0; d < k; ++d) {
      if (!col_active(active, d)) continue;
      const std::size_t off = static_cast<std::size_t>(d) * n;
      vspmv(vpu, a, x.subspan(off, n), y.subspan(off, n), strip);
    }
    return;
  }
  const int eff = effective_strip(vpu, strip);
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
        // active stream — the same sharing lever as the ELL overload.
        const sim::Vec vv = vpu.vload(a.vals(s, j) + i);
        const int c0 = a.coalesced_col(s, j);
        sim::Vec idx;
        if (c0 < 0) idx = vpu.vload_i32(a.cols(s, j) + i);
        for (int d = 0; d < k; ++d) {
          if (!col_active(active, d)) continue;
          const double* xd = x.data() + static_cast<std::size_t>(d) * n;
          sim::Vec xs;
          if (c0 >= 0) {
            xs = vpu.vload(xd + c0 + i);
            vpu.note_coalesced_lanes(static_cast<std::uint64_t>(vl));
          } else {
            xs = vpu.vgather(xd, idx);
          }
          acc[static_cast<std::size_t>(d)] =
              vpu.vfma(vv, xs, acc[static_cast<std::size_t>(d)]);
          vpu.sarith(1);  // stream-loop control
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

void OperatorMirror::apply_multi(sim::Vpu& vpu, std::span<const double> x,
                                 std::span<double> y, int k, int strip,
                                 std::span<const char> active) const {
  switch (format_) {
    case SpmvFormat::kCsrHost: {
      const std::size_t n =
          check_multi(y.size(), k, active, "apply_multi(csr)");
      check_len(x.size(), y.size(), "apply_multi(csr)");
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
  const std::size_t n = check_multi(a.size(), k, active, "vdot_multi");
  check_len(b.size(), a.size(), "vdot_multi");
  check_len(out.size(), static_cast<std::size_t>(k), "vdot_multi");
  if (!any_active(active, k)) return;
  if (!vector_path(vpu) || k == 1) {
    for (int d = 0; d < k; ++d) {
      if (!col_active(active, d)) continue;
      const std::size_t off = static_cast<std::size_t>(d) * n;
      out[static_cast<std::size_t>(d)] =
          vdot(vpu, a.subspan(off, n), b.subspan(off, n), strip);
    }
    return;
  }
  for (int d = 0; d < k; ++d) {
    if (col_active(active, d)) out[static_cast<std::size_t>(d)] = 0.0;
  }
  for_strips(vpu, static_cast<int>(n), effective_strip(vpu, strip),
             [&](int i, int) {
    for (int d = 0; d < k; ++d) {
      if (!col_active(active, d)) continue;
      const std::size_t off = static_cast<std::size_t>(d) * n;
      const sim::Vec va = vpu.vload(a.data() + off + i);
      const sim::Vec vb = vpu.vload(b.data() + off + i);
      out[static_cast<std::size_t>(d)] = vpu.sadd(
          out[static_cast<std::size_t>(d)], vpu.vredsum(vpu.vmul(va, vb)));
    }
  });
}

void vaxpy_multi(sim::Vpu& vpu, std::span<const double> alpha,
                 std::span<const double> x, std::span<double> y, int k,
                 int strip, std::span<const char> active) {
  const std::size_t n = check_multi(y.size(), k, active, "vaxpy_multi");
  check_len(x.size(), y.size(), "vaxpy_multi");
  check_len(alpha.size(), static_cast<std::size_t>(k), "vaxpy_multi");
  if (!any_active(active, k)) return;
  if (!vector_path(vpu) || k == 1) {
    for (int d = 0; d < k; ++d) {
      if (!col_active(active, d)) continue;
      const std::size_t off = static_cast<std::size_t>(d) * n;
      vaxpy(vpu, alpha[static_cast<std::size_t>(d)], x.subspan(off, n),
            y.subspan(off, n), strip);
    }
    return;
  }
  for_strips(vpu, static_cast<int>(n), effective_strip(vpu, strip),
             [&](int i, int) {
    for (int d = 0; d < k; ++d) {
      if (!col_active(active, d)) continue;
      const std::size_t off = static_cast<std::size_t>(d) * n;
      const sim::Vec vy = vpu.vload(y.data() + off + i);
      const sim::Vec vx = vpu.vload(x.data() + off + i);
      vpu.vstore(y.data() + off + i,
                 vpu.vfma_s(vx, alpha[static_cast<std::size_t>(d)], vy));
    }
  });
}

void vsub_multi(sim::Vpu& vpu, std::span<const double> a,
                std::span<const double> b, std::span<double> out, int k,
                int strip, std::span<const char> active) {
  const std::size_t n = check_multi(out.size(), k, active, "vsub_multi");
  check_len(a.size(), out.size(), "vsub_multi");
  check_len(b.size(), out.size(), "vsub_multi");
  if (!any_active(active, k)) return;
  if (!vector_path(vpu) || k == 1) {
    for (int d = 0; d < k; ++d) {
      if (!col_active(active, d)) continue;
      const std::size_t off = static_cast<std::size_t>(d) * n;
      vsub(vpu, a.subspan(off, n), b.subspan(off, n), out.subspan(off, n),
           strip);
    }
    return;
  }
  for_strips(vpu, static_cast<int>(n), effective_strip(vpu, strip),
             [&](int i, int) {
    for (int d = 0; d < k; ++d) {
      if (!col_active(active, d)) continue;
      const std::size_t off = static_cast<std::size_t>(d) * n;
      const sim::Vec va = vpu.vload(a.data() + off + i);
      const sim::Vec vb = vpu.vload(b.data() + off + i);
      vpu.vstore(out.data() + off + i, vpu.vsub(va, vb));
    }
  });
}

void vcopy_multi(sim::Vpu& vpu, std::span<const double> src,
                 std::span<double> dst, int k, int strip,
                 std::span<const char> active) {
  const std::size_t n = check_multi(dst.size(), k, active, "vcopy_multi");
  check_len(src.size(), dst.size(), "vcopy_multi");
  if (!any_active(active, k)) return;
  if (!vector_path(vpu) || k == 1) {
    for (int d = 0; d < k; ++d) {
      if (!col_active(active, d)) continue;
      const std::size_t off = static_cast<std::size_t>(d) * n;
      vcopy(vpu, src.subspan(off, n), dst.subspan(off, n), strip);
    }
    return;
  }
  for_strips(vpu, static_cast<int>(n), effective_strip(vpu, strip),
             [&](int i, int) {
    for (int d = 0; d < k; ++d) {
      if (!col_active(active, d)) continue;
      const std::size_t off = static_cast<std::size_t>(d) * n;
      vpu.vstore(dst.data() + off + i, vpu.vload(src.data() + off + i));
    }
  });
}

void vjacobi_apply_multi(sim::Vpu& vpu, std::span<const double> dinv,
                         std::span<const double> r, std::span<double> z,
                         int k, int strip, std::span<const char> active) {
  if (dinv.empty()) {
    vcopy_multi(vpu, r, z, k, strip, active);
    return;
  }
  const std::size_t n = check_multi(z.size(), k, active,
                                    "vjacobi_apply_multi");
  check_len(r.size(), z.size(), "vjacobi_apply_multi");
  check_len(dinv.size(), n, "vjacobi_apply_multi");
  if (!any_active(active, k)) return;
  if (!vector_path(vpu) || k == 1) {
    for (int d = 0; d < k; ++d) {
      if (!col_active(active, d)) continue;
      const std::size_t off = static_cast<std::size_t>(d) * n;
      vjacobi_apply(vpu, dinv, r.subspan(off, n), z.subspan(off, n), strip);
    }
    return;
  }
  for_strips(vpu, static_cast<int>(n), effective_strip(vpu, strip),
             [&](int i, int) {
    for (int d = 0; d < k; ++d) {
      if (!col_active(active, d)) continue;
      const std::size_t off = static_cast<std::size_t>(d) * n;
      const sim::Vec vd = vpu.vload(dinv.data() + i);
      const sim::Vec vr = vpu.vload(r.data() + off + i);
      vpu.vstore(z.data() + off + i, vpu.vmul(vd, vr));
    }
  });
}

namespace {

/// out_d = base_d + scale[d]·scaled_d for every active column — the blocked
/// axpby_into (the s / r updates of the multi solver).
void axpby_into_multi(sim::Vpu& vpu, std::span<const double> base,
                      std::span<const double> scale,
                      std::span<const double> scaled, std::span<double> out,
                      int k, int strip, std::span<const char> active) {
  const std::size_t n = check_multi(out.size(), k, active,
                                    "axpby_into_multi");
  if (!any_active(active, k)) return;
  if (!vector_path(vpu) || k == 1) {
    for (int d = 0; d < k; ++d) {
      if (!col_active(active, d)) continue;
      const std::size_t off = static_cast<std::size_t>(d) * n;
      axpby_into(vpu, base.subspan(off, n), scale[static_cast<std::size_t>(d)],
                 scaled.subspan(off, n), out.subspan(off, n), strip);
    }
    return;
  }
  for_strips(vpu, static_cast<int>(n), effective_strip(vpu, strip),
             [&](int i, int) {
    for (int d = 0; d < k; ++d) {
      if (!col_active(active, d)) continue;
      const std::size_t off = static_cast<std::size_t>(d) * n;
      const sim::Vec vb = vpu.vload(base.data() + off + i);
      const sim::Vec vs = vpu.vload(scaled.data() + off + i);
      vpu.vstore(out.data() + off + i,
                 vpu.vfma_s(vs, scale[static_cast<std::size_t>(d)], vb));
    }
  });
}

/// Blocked BiCGStab direction update: restart columns take p_d = r_d, the
/// rest p_d = r_d + beta[d]·(p_d − omega[d]·v_d) — per-column identical to
/// vcopy / bicgstab_p_update.
void bicgstab_p_update_multi(sim::Vpu& vpu, std::span<const double> r,
                             std::span<const double> beta,
                             std::span<const double> omega,
                             std::span<const double> v, std::span<double> p,
                             int k, std::span<const char> restart, int strip,
                             std::span<const char> active) {
  const std::size_t n = check_multi(p.size(), k, active,
                                    "bicgstab_p_update_multi");
  if (!any_active(active, k)) return;
  if (!vector_path(vpu) || k == 1) {
    for (int d = 0; d < k; ++d) {
      if (!col_active(active, d)) continue;
      const std::size_t off = static_cast<std::size_t>(d) * n;
      if (restart[static_cast<std::size_t>(d)]) {
        vcopy(vpu, r.subspan(off, n), p.subspan(off, n), strip);
      } else {
        bicgstab_p_update(vpu, r.subspan(off, n),
                          beta[static_cast<std::size_t>(d)],
                          omega[static_cast<std::size_t>(d)],
                          v.subspan(off, n), p.subspan(off, n), strip);
      }
    }
    return;
  }
  for_strips(vpu, static_cast<int>(n), effective_strip(vpu, strip),
             [&](int i, int) {
    for (int d = 0; d < k; ++d) {
      if (!col_active(active, d)) continue;
      const std::size_t off = static_cast<std::size_t>(d) * n;
      if (restart[static_cast<std::size_t>(d)]) {
        vpu.vstore(p.data() + off + i, vpu.vload(r.data() + off + i));
        continue;
      }
      const sim::Vec vp = vpu.vload(p.data() + off + i);
      const sim::Vec vv = vpu.vload(v.data() + off + i);
      const sim::Vec vr = vpu.vload(r.data() + off + i);
      const sim::Vec tmp =
          vpu.vfma_s(vv, -omega[static_cast<std::size_t>(d)], vp);
      vpu.vstore(p.data() + off + i,
                 vpu.vfma_s(tmp, beta[static_cast<std::size_t>(d)], vr));
    }
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

SolveReport vbicgstab(sim::Vpu& vpu, const CsrMatrix& a,
                      std::span<const double> b, std::span<double> x,
                      const SolveOptions& opts, int strip,
                      KrylovWorkspace* ws, SpmvFormat format) {
  const std::size_t n = b.size();
  if (static_cast<int>(n) != a.rows() || x.size() != n) {
    throw std::invalid_argument("vbicgstab: dimension mismatch");
  }
  require_jacobi_rung(opts, "vbicgstab");
  SolveReport rep;
  const double bnorm = vnorm2(vpu, b, strip);
  if (bnorm == 0.0) {
    vfill(vpu, x, 0.0, strip);
    rep.converged = true;
    rep.history.push_back(0.0);
    return checked(rep);
  }
  KrylovWorkspace local;
  if (ws == nullptr) ws = &local;
  ws->op.assign(a, format, mirror_slice_height(strip, vpu.config()));
  const OperatorMirror& op = ws->op;

  std::vector<double>&r = ws->r, &r0 = ws->z, &p = ws->p, &v = ws->q;
  std::vector<double>&s = ws->s, &t = ws->t, &phat = ws->u, &shat = ws->w;
  r.assign(n, 0.0);
  r0.assign(n, 0.0);
  p.assign(n, 0.0);
  v.assign(n, 0.0);
  s.assign(n, 0.0);
  t.assign(n, 0.0);
  phat.assign(n, 0.0);
  shat.assign(n, 0.0);
  std::vector<double>& dinv = ws->dinv;
  if (opts.jacobi_precondition) {
    try {
      jacobi_inverse_diagonal_into(a, dinv);
    } catch (const std::runtime_error& e) {
      return checked(
          vfailure_exit(vpu, rep, e.what(), op, b, x, r, bnorm, opts, strip));
    }
  } else {
    dinv.clear();
  }
  op.apply(vpu, x, r, strip);
  vsub(vpu, b, r, r, strip);
  const double rel0 = vpu.sdiv(vnorm2(vpu, r, strip), bnorm);
  rep.residual = rel0;
  rep.history.push_back(rel0);
  if (rel0 < opts.rel_tolerance) {
    rep.converged = true;
    return checked(rep);
  }
  vcopy(vpu, r, r0, strip);
  double rho = 1.0;
  double alpha = 1.0;
  double omega = 1.0;

  for (int it = 0; it < opts.max_iterations; ++it) {
    double rho_new = vdot(vpu, r0, r, strip);
    bool restart = it == 0;
    if (rho_new == 0.0) {
      // serious breakdown: restart with r0 = r (see krylov.cpp)
      vcopy(vpu, r, r0, strip);
      rho_new = vdot(vpu, r, r, strip);
      if (rho_new == 0.0) {
        return checked(vbreakdown_exit(vpu, rep, it, r, bnorm, opts, strip));
      }
      restart = true;
    }
    if (restart) {
      vcopy(vpu, r, p, strip);
    } else {
      const double beta =
          vpu.smul(vpu.sdiv(rho_new, rho), vpu.sdiv(alpha, omega));
      bicgstab_p_update(vpu, r, beta, omega, v, p, strip);
    }
    rho = rho_new;
    vjacobi_apply(vpu, dinv, p, phat, strip);
    op.apply(vpu, phat, v, strip);
    const double r0v = vdot(vpu, r0, v, strip);
    if (r0v == 0.0) {
      return checked(vbreakdown_exit(vpu, rep, it, r, bnorm, opts, strip));
    }
    alpha = vpu.sdiv(rho, r0v);
    axpby_into(vpu, r, -alpha, v, s, strip);
    const double srel = vpu.sdiv(vnorm2(vpu, s, strip), bnorm);
    if (srel < opts.rel_tolerance) {
      vaxpy(vpu, alpha, phat, x, strip);
      rep.iterations = it + 1;
      rep.residual = srel;
      rep.history.push_back(srel);
      rep.converged = true;
      return checked(rep);
    }
    vjacobi_apply(vpu, dinv, s, shat, strip);
    op.apply(vpu, shat, t, strip);
    const double tt = vdot(vpu, t, t, strip);
    if (tt == 0.0) {
      // apply the valid half-step so x matches the reported residual s
      vaxpy(vpu, alpha, phat, x, strip);
      return checked(vbreakdown_exit(vpu, rep, it, s, bnorm, opts, strip));
    }
    omega = vpu.sdiv(vdot(vpu, t, s, strip), tt);
    vaxpy(vpu, alpha, phat, x, strip);
    vaxpy(vpu, omega, shat, x, strip);
    axpby_into(vpu, s, -omega, t, r, strip);
    const double rel = vpu.sdiv(vnorm2(vpu, r, strip), bnorm);
    rep.history.push_back(rel);
    rep.iterations = it + 1;
    rep.residual = rel;
    if (rel < opts.rel_tolerance) {
      rep.converged = true;
      return checked(rep);
    }
    if (omega == 0.0) break;
  }
  return checked(rep);
}

std::vector<SolveReport> vbicgstab_multi(sim::Vpu& vpu, const CsrMatrix& a,
                                         std::span<const double> b,
                                         std::span<double> x, int k,
                                         const SolveOptions& opts, int strip,
                                         KrylovWorkspace* ws,
                                         SpmvFormat format) {
  if (k <= 0) {
    throw std::invalid_argument("vbicgstab_multi: k must be positive");
  }
  const std::size_t n = static_cast<std::size_t>(a.rows());
  const std::size_t cells = n * static_cast<std::size_t>(k);
  if (b.size() != cells || x.size() != cells) {
    throw std::invalid_argument("vbicgstab_multi: dimension mismatch");
  }
  require_jacobi_rung(opts, "vbicgstab_multi");
  auto bcol = [&](int d) {
    return b.subspan(static_cast<std::size_t>(d) * n, n);
  };
  auto xcol = [&](int d) {
    return x.subspan(static_cast<std::size_t>(d) * n, n);
  };
  auto ccol = [&](const std::vector<double>& blk, int d) {
    return std::span<const double>(blk).subspan(
        static_cast<std::size_t>(d) * n, n);
  };
  auto mcol = [&](std::vector<double>& blk, int d) {
    return std::span<double>(blk).subspan(static_cast<std::size_t>(d) * n, n);
  };

  const std::size_t uk = static_cast<std::size_t>(k);
  std::vector<SolveReport> reps(uk);
  std::vector<char> active(uk, 0);
  std::vector<char> restart(uk, 0);
  std::vector<double> bnorm(uk, 0.0), rho(uk, 1.0), alpha(uk, 1.0);
  std::vector<double> omega(uk, 1.0), scal(uk, 0.0), ts(uk, 0.0);
  std::vector<double> beta(uk, 0.0), negscale(uk, 0.0);
  int remaining = 0;

  for (int d = 0; d < k; ++d) {
    bnorm[static_cast<std::size_t>(d)] = vnorm2(vpu, bcol(d), strip);
    if (bnorm[static_cast<std::size_t>(d)] == 0.0) {
      vfill(vpu, xcol(d), 0.0, strip);
      reps[static_cast<std::size_t>(d)].converged = true;
      reps[static_cast<std::size_t>(d)].history.push_back(0.0);
    } else {
      active[static_cast<std::size_t>(d)] = 1;
      ++remaining;
    }
  }
  if (remaining == 0) return checked(reps);

  KrylovWorkspace local;
  if (ws == nullptr) ws = &local;
  ws->op.assign(a, format, mirror_slice_height(strip, vpu.config()));
  const OperatorMirror& op = ws->op;

  std::vector<double>&R = ws->r, &R0 = ws->z, &P = ws->p, &V = ws->q;
  std::vector<double>&S = ws->s, &T = ws->t, &Phat = ws->u, &Shat = ws->w;
  std::vector<double>& dinv = ws->dinv;
  if (opts.jacobi_precondition) {
    try {
      jacobi_inverse_diagonal_into(a, dinv);
    } catch (const std::runtime_error& e) {
      // per-column instrumented failure exits; zero-RHS columns already
      // took their ordinary exit above
      R.assign(cells, 0.0);
      for (int d = 0; d < k; ++d) {
        const std::size_t ud = static_cast<std::size_t>(d);
        if (!active[ud]) continue;
        vfailure_exit(vpu, reps[ud], e.what(), op, bcol(d), xcol(d),
                      mcol(R, d), bnorm[ud], opts, strip);
      }
      return checked(reps);
    }
  } else {
    dinv.clear();
  }
  R.assign(cells, 0.0);
  R0.assign(cells, 0.0);
  P.assign(cells, 0.0);
  V.assign(cells, 0.0);
  S.assign(cells, 0.0);
  T.assign(cells, 0.0);
  Phat.assign(cells, 0.0);
  Shat.assign(cells, 0.0);

  auto retire = [&](int d) {
    active[static_cast<std::size_t>(d)] = 0;
    --remaining;
  };

  op.apply_multi(vpu, x, R, k, strip, active);
  vsub_multi(vpu, b, R, R, k, strip, active);
  for (int d = 0; d < k; ++d) {
    const std::size_t ud = static_cast<std::size_t>(d);
    if (!active[ud]) continue;
    const double rel0 = vpu.sdiv(vnorm2(vpu, ccol(R, d), strip), bnorm[ud]);
    reps[ud].residual = rel0;
    reps[ud].history.push_back(rel0);
    if (rel0 < opts.rel_tolerance) {
      reps[ud].converged = true;
      retire(d);
    }
  }
  if (remaining > 0) vcopy_multi(vpu, R, R0, k, strip, active);

  auto column_breakdown = [&](int d, int it, std::span<const double> res) {
    vbreakdown_exit(vpu, reps[static_cast<std::size_t>(d)], it, res,
                    bnorm[static_cast<std::size_t>(d)], opts, strip);
    retire(d);
  };

  for (int it = 0; it < opts.max_iterations && remaining > 0; ++it) {
    vdot_multi(vpu, R0, R, k, scal, strip, active);  // per-column ρ
    for (int d = 0; d < k; ++d) {
      const std::size_t ud = static_cast<std::size_t>(d);
      if (!active[ud]) continue;
      restart[ud] = it == 0 ? 1 : 0;
      if (scal[ud] == 0.0) {
        // serious breakdown in column d: restart with r0 = r (see krylov.cpp)
        vcopy(vpu, ccol(R, d), mcol(R0, d), strip);
        scal[ud] = vdot(vpu, ccol(R, d), ccol(R, d), strip);
        if (scal[ud] == 0.0) {
          column_breakdown(d, it, ccol(R, d));
          continue;
        }
        restart[ud] = 1;
      }
      if (!restart[ud]) {
        beta[ud] = vpu.smul(vpu.sdiv(scal[ud], rho[ud]),
                            vpu.sdiv(alpha[ud], omega[ud]));
      }
      rho[ud] = scal[ud];
    }
    if (remaining == 0) break;
    bicgstab_p_update_multi(vpu, R, beta, omega, V, P, k, restart, strip,
                            active);
    vjacobi_apply_multi(vpu, dinv, P, Phat, k, strip, active);
    op.apply_multi(vpu, Phat, V, k, strip, active);
    vdot_multi(vpu, R0, V, k, scal, strip, active);  // per-column r₀·v
    for (int d = 0; d < k; ++d) {
      const std::size_t ud = static_cast<std::size_t>(d);
      if (!active[ud]) continue;
      if (scal[ud] == 0.0) {
        column_breakdown(d, it, ccol(R, d));
        continue;
      }
      alpha[ud] = vpu.sdiv(rho[ud], scal[ud]);
      negscale[ud] = -alpha[ud];
    }
    if (remaining == 0) break;
    axpby_into_multi(vpu, R, negscale, V, S, k, strip, active);  // s = r − αv
    for (int d = 0; d < k; ++d) {
      const std::size_t ud = static_cast<std::size_t>(d);
      if (!active[ud]) continue;
      const double srel =
          vpu.sdiv(vnorm2(vpu, ccol(S, d), strip), bnorm[ud]);
      if (srel < opts.rel_tolerance) {
        vaxpy(vpu, alpha[ud], ccol(Phat, d), xcol(d), strip);
        reps[ud].iterations = it + 1;
        reps[ud].residual = srel;
        reps[ud].history.push_back(srel);
        reps[ud].converged = true;
        retire(d);
      }
    }
    if (remaining == 0) break;
    vjacobi_apply_multi(vpu, dinv, S, Shat, k, strip, active);
    op.apply_multi(vpu, Shat, T, k, strip, active);
    vdot_multi(vpu, T, T, k, scal, strip, active);  // per-column t·t
    for (int d = 0; d < k; ++d) {
      const std::size_t ud = static_cast<std::size_t>(d);
      if (!active[ud]) continue;
      if (scal[ud] == 0.0) {
        // apply the valid half-step so x matches the reported residual s
        vaxpy(vpu, alpha[ud], ccol(Phat, d), xcol(d), strip);
        column_breakdown(d, it, ccol(S, d));
      }
    }
    if (remaining == 0) break;
    vdot_multi(vpu, T, S, k, ts, strip, active);
    for (int d = 0; d < k; ++d) {
      const std::size_t ud = static_cast<std::size_t>(d);
      if (!active[ud]) continue;
      omega[ud] = vpu.sdiv(ts[ud], scal[ud]);
      negscale[ud] = -omega[ud];
    }
    vaxpy_multi(vpu, alpha, Phat, x, k, strip, active);
    vaxpy_multi(vpu, omega, Shat, x, k, strip, active);
    axpby_into_multi(vpu, S, negscale, T, R, k, strip, active);  // r = s − ωt
    for (int d = 0; d < k; ++d) {
      const std::size_t ud = static_cast<std::size_t>(d);
      if (!active[ud]) continue;
      const double rel = vpu.sdiv(vnorm2(vpu, ccol(R, d), strip), bnorm[ud]);
      reps[ud].history.push_back(rel);
      reps[ud].iterations = it + 1;
      reps[ud].residual = rel;
      if (rel < opts.rel_tolerance) {
        reps[ud].converged = true;
        retire(d);
        continue;
      }
      if (omega[ud] == 0.0) retire(d);  // ω breakdown: already reported
    }
  }
  return checked(reps);
}

}  // namespace vecfd::solver
