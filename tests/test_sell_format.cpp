// SELL-C-σ storage tests (solver/sell.h): layout invariants of the
// σ-window sort, bitwise SpMV equality against the host CSR product on
// every platform, the gather-coalescing fast path, and the pad-lane
// hygiene contract — a masked pad lane must generate ZERO cache-line
// traffic, unlike the old own-row padding that polluted the simulated
// cache with fake locality.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <vector>

#include "fem/mesh.h"
#include "platforms/platforms.h"
#include "solver/csr.h"
#include "solver/sell.h"
#include "solver/vkernels.h"
#include "support/bandwidth.h"

namespace {

using namespace vecfd;
using solver::CsrMatrix;
using solver::EllMatrix;
using solver::SellMatrix;

const sim::MachineConfig kMachines[] = {
    platforms::riscv_vec(), platforms::riscv_vec_scalar(),
    platforms::sx_aurora(), platforms::mn4_avx512()};

CsrMatrix random_system(int n, int extra, unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<int> col(0, n - 1);
  std::uniform_real_distribution<double> val(-1.0, 1.0);
  std::vector<std::vector<int>> adj(static_cast<std::size_t>(n));
  // variable row lengths: row r gets (r % (extra+1)) extra entries, so the
  // σ-window sort has real work to do
  for (int r = 0; r < n; ++r) {
    for (int k = 0; k < r % (extra + 1); ++k) {
      adj[static_cast<std::size_t>(r)].push_back(col(rng));
    }
  }
  CsrMatrix a(adj);
  for (int r = 0; r < n; ++r) {
    for (int c : a.row_cols(r)) a.add(r, c, c == r ? 4.0 : val(rng));
  }
  return a;
}

std::vector<double> random_vector(int n, unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> u(-1.0, 1.0);
  std::vector<double> v(static_cast<std::size_t>(n));
  for (double& x : v) x = u(rng);
  return v;
}

TEST(SellMatrix, SigmaWindowSortIsALocalStablePermutation) {
  const CsrMatrix a = random_system(137, 5, 42);  // odd size: ragged tail
  const int c = 16;
  const int sigma = 32;
  const SellMatrix s(a, c, /*sigma_slices=*/sigma / c);
  ASSERT_EQ(s.rows(), 137);
  ASSERT_EQ(s.slice_height(), 16);
  ASSERT_EQ(s.num_slices(), 9);
  // sorted position q holds original row perm(q) (lane q % C of slice q / C)
  const auto perm = [&](int q) { return s.row_ids(q / c)[q % c]; };
  EXPECT_EQ(s.slice_rows(8), 137 - 8 * 16);  // ragged tail slice

  std::vector<char> seen(137, 0);
  for (int q = 0; q < s.rows(); ++q) {
    const int r = perm(q);
    ASSERT_GE(r, 0);
    ASSERT_LT(r, 137);
    EXPECT_FALSE(seen[static_cast<std::size_t>(r)]) << "duplicate row " << r;
    seen[static_cast<std::size_t>(r)] = 1;
    // σ-window locality: a row never leaves its sort window
    EXPECT_EQ(q / sigma, r / sigma) << "row " << r << " at " << q;
  }

  // within a window, lengths descend and equal lengths keep CSR order
  for (int w0 = 0; w0 < s.rows(); w0 += sigma) {
    const int w1 = std::min(w0 + sigma, s.rows());
    for (int q = w0; q + 1 < w1; ++q) {
      const int r0 = perm(q);
      const int r1 = perm(q + 1);
      const auto l0 = a.row_cols(r0).size();
      const auto l1 = a.row_cols(r1).size();
      EXPECT_GE(l0, l1);
      if (l0 == l1) {
        EXPECT_LT(r0, r1);  // stability
      }
    }
  }

  // per-slice width is the max row length of the slice; pads are the
  // sentinel and the pad census matches cells − nnz
  std::uint64_t pads = 0;
  for (int sl = 0; sl < s.num_slices(); ++sl) {
    int want = 0;
    for (int l = 0; l < s.slice_rows(sl); ++l) {
      want = std::max(
          want, static_cast<int>(a.row_cols(s.row_ids(sl)[l]).size()));
    }
    EXPECT_EQ(s.slice_width(sl), want);
    for (int j = 0; j < s.slice_width(sl); ++j) {
      for (int l = 0; l < s.slice_rows(sl); ++l) {
        if (s.cols(sl, j)[l] < 0) {
          EXPECT_DOUBLE_EQ(s.vals(sl, j)[l], 0.0);
          ++pads;
        }
      }
    }
  }
  EXPECT_EQ(s.cells() - pads, a.nnz());
  // the σ sort exists to beat ELL's global-width padding
  const EllMatrix e(a);
  const std::uint64_t ell_cells =
      static_cast<std::uint64_t>(e.rows()) *
      static_cast<std::uint64_t>(e.width());
  EXPECT_LT(pads, ell_cells - a.nnz());
}

TEST(SellSpmv, BitwiseEqualsCsrAndEllOnEveryPlatform) {
  for (const int n : {97, 200}) {
    const CsrMatrix a = random_system(n, 6, 7u + static_cast<unsigned>(n));
    const std::vector<double> x = random_vector(n, 11);
    std::vector<double> y_host(static_cast<std::size_t>(n));
    a.spmv(x, y_host);
    for (const auto& m : kMachines) {
      const int strip = 48;
      const SellMatrix s(a, strip);
      const EllMatrix e(a);
      sim::Vpu vpu(m);
      std::vector<double> y_sell(static_cast<std::size_t>(n), -1.0);
      std::vector<double> y_ell(static_cast<std::size_t>(n), -1.0);
      solver::vspmv(vpu, s, x, y_sell, strip);
      solver::vspmv(vpu, e, x, y_ell, strip);
      std::vector<double> y_csr(static_cast<std::size_t>(n), -1.0);
      solver::vspmv(vpu, a, x, y_csr);
      for (int i = 0; i < n; ++i) {
        EXPECT_EQ(y_sell[static_cast<std::size_t>(i)],
                  y_host[static_cast<std::size_t>(i)])
            << m.name << " sell row " << i;
        EXPECT_EQ(y_ell[static_cast<std::size_t>(i)],
                  y_host[static_cast<std::size_t>(i)])
            << m.name << " ell row " << i;
        EXPECT_EQ(y_csr[static_cast<std::size_t>(i)],
                  y_host[static_cast<std::size_t>(i)])
            << m.name << " csr row " << i;
      }
    }
  }
}

TEST(SellSpmv, CoalescesBandedSlabsIntoUnitStrideLoads) {
  // A full tridiagonal band: every slab of every interior slice is the
  // unit run {r−1, r, r+1}, so assign() must coalesce it and the kernel
  // must not issue a single gather for it.
  const int n = 128;
  std::vector<std::vector<int>> adj(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    if (i > 0) adj[static_cast<std::size_t>(i)].push_back(i - 1);
    if (i < n - 1) adj[static_cast<std::size_t>(i)].push_back(i + 1);
  }
  CsrMatrix a(adj);
  for (int i = 0; i < n; ++i) {
    a.add(i, i, 2.0);
    if (i > 0) a.add(i, i - 1, -1.0);
    if (i < n - 1) a.add(i, i + 1, -1.0);
  }
  const int c = 32;
  // σ = C: each window is one slice, so the interior slices keep the
  // identity ordering (a wider σ would migrate the short boundary rows
  // across slice boundaries)
  const SellMatrix s(a, c, /*sigma_slices=*/1);
  // interior slices (1, 2): all three slabs coalesce; the identity sort
  // keeps rows contiguous so stores are unit-stride too
  for (int sl = 1; sl < 3; ++sl) {
    EXPECT_EQ(s.slice_row_base(sl), sl * c);
    for (int j = 0; j < s.slice_width(sl); ++j) {
      EXPECT_GE(s.coalesced_col(sl, j), 0) << "slice " << sl << " slab " << j;
    }
  }

  const std::vector<double> xv = random_vector(n, 3);
  std::vector<double> y(static_cast<std::size_t>(n)), y_host(y);
  a.spmv(xv, y_host);
  sim::Vpu vpu(platforms::riscv_vec());
  solver::vspmv(vpu, s, xv, y, c);
  for (int i = 0; i < n; ++i) {
    EXPECT_EQ(y[static_cast<std::size_t>(i)],
              y_host[static_cast<std::size_t>(i)]);
  }
  const auto& ct = vpu.counters();
  EXPECT_GT(ct.coalesced_lanes, 0u);
  // only the boundary slices still gather (their short rows break the run)
  const EllMatrix e(a);
  sim::Vpu vpu_ell(platforms::riscv_vec());
  solver::vspmv(vpu_ell, e, xv, y, c);
  EXPECT_LT(ct.vmem_indexed_instrs, vpu_ell.counters().vmem_indexed_instrs);
  EXPECT_LT(ct.gather_lines_touched,
            vpu_ell.counters().gather_lines_touched);
}

/// Expected distinct-cache-line count of one vgather over the REAL lanes
/// of a (strip, slab) group — the test-side mirror of the accounting
/// inside Vpu::vgather.
std::uint64_t expected_gather_lines(const std::vector<std::int32_t>& cols,
                                    const double* x, std::size_t line) {
  std::vector<std::uintptr_t> lines;
  for (const std::int32_t c : cols) {
    if (c < 0) continue;
    lines.push_back(reinterpret_cast<std::uintptr_t>(x + c) &
                    ~(static_cast<std::uintptr_t>(line) - 1));
  }
  std::sort(lines.begin(), lines.end());
  return static_cast<std::uint64_t>(
      std::unique(lines.begin(), lines.end()) - lines.begin());
}

TEST(PadLanes, ContributeZeroCacheLineTraffic) {
  // Row 0 holds two far-apart entries, rows 1..63 a single diagonal: the
  // ELL mirror's second slab is 1 real lane + 63 pads.  The masked pads
  // must not touch the hierarchy; the SAME pattern with explicit zero
  // entries at column 0 (the pre-fix behaviour, expressible as structural
  // zeros) must compute the identical y while touching MORE lines.
  const int n = 64;
  std::vector<std::vector<int>> adj(static_cast<std::size_t>(n));
  adj[0] = {32, 48};
  CsrMatrix a(adj);
  a.add(0, 32, 2.5);
  a.add(0, 48, -1.25);
  for (int r = 0; r < n; ++r) a.add(r, r, 1.0 + r);

  // The same system with every short row topped up to width 3 by explicit
  // STRUCTURAL ZEROS — the "pads as real entries" behaviour this test
  // regresses against: identical y, but the fake entries gather real lines.
  std::vector<std::vector<int>> adj_z(static_cast<std::size_t>(n));
  adj_z[0] = {32, 48};
  adj_z[1] = {0, 2};
  for (int r = 2; r < n; ++r) adj_z[static_cast<std::size_t>(r)] = {0, 1};
  CsrMatrix az(adj_z);
  az.add(0, 32, 2.5);
  az.add(0, 48, -1.25);
  for (int r = 0; r < n; ++r) az.add(r, r, 1.0 + r);

  const EllMatrix e(a), ez(az);
  ASSERT_EQ(e.width(), 3);
  ASSERT_EQ(ez.width(), 3);
  std::vector<double> x = random_vector(n, 9);
  for (double& v : x) v = 0.5 + std::abs(v);  // positive: ±0·x is +0

  const auto m = platforms::riscv_vec();
  sim::Vpu vpu(m), vpu_z(m);
  std::vector<double> y(static_cast<std::size_t>(n));
  std::vector<double> y_z(static_cast<std::size_t>(n));
  solver::vspmv(vpu, e, x, y, n);      // one strip of 64
  solver::vspmv(vpu_z, ez, x, y_z, n);
  for (int i = 0; i < n; ++i) {
    EXPECT_EQ(y[static_cast<std::size_t>(i)],
              y_z[static_cast<std::size_t>(i)])
        << "row " << i;
  }

  // exact pad census: width 3 × 64 cells − nnz real entries
  const auto& ct = vpu.counters();
  EXPECT_EQ(ct.pad_lanes, 3u * 64u - a.nnz());
  EXPECT_EQ(vpu_z.counters().pad_lanes, 0u);

  // the gather-line counter must equal the REAL lanes' distinct lines,
  // computed independently here — pads add exactly nothing
  const std::size_t line = m.memory.l1.line_bytes;
  std::uint64_t want = 0;
  for (int j = 0; j < e.width(); ++j) {
    std::vector<std::int32_t> cols(e.cols(j), e.cols(j) + n);
    want += expected_gather_lines(cols, x.data(), line);
  }
  EXPECT_EQ(ct.gather_lines_touched, want);
  EXPECT_LT(ct.gather_lanes, vpu_z.counters().gather_lanes);
  EXPECT_LT(ct.l1_accesses, vpu_z.counters().l1_accesses);
}

TEST(SellSpmvMulti, ColumnsMatchSingleRhsBitwiseWithActiveMasks) {
  const int n = 75;
  const int k = 3;
  const CsrMatrix a = random_system(n, 5, 21);
  const SellMatrix s(a, 32);
  std::vector<double> X(static_cast<std::size_t>(n) * k);
  for (int d = 0; d < k; ++d) {
    const auto xd = random_vector(n, 100u + static_cast<unsigned>(d));
    std::copy(xd.begin(), xd.end(),
              X.begin() + static_cast<std::ptrdiff_t>(d) * n);
  }
  std::vector<double> Y(static_cast<std::size_t>(n) * k, -7.0);
  const std::vector<char> active = {1, 0, 1};
  sim::Vpu vpu(platforms::riscv_vec());
  solver::vspmv_multi(vpu, s, X, Y, k, 32, active);
  for (int d = 0; d < k; ++d) {
    const std::size_t off = static_cast<std::size_t>(d) * n;
    if (!active[static_cast<std::size_t>(d)]) {
      for (int i = 0; i < n; ++i) {
        EXPECT_EQ(Y[off + static_cast<std::size_t>(i)], -7.0);
      }
      continue;
    }
    sim::Vpu vpu_s(platforms::riscv_vec());
    std::vector<double> y(static_cast<std::size_t>(n));
    solver::vspmv(vpu_s, s,
                  std::span<const double>(X).subspan(off, n), y, 32);
    for (int i = 0; i < n; ++i) {
      EXPECT_EQ(Y[off + static_cast<std::size_t>(i)],
                y[static_cast<std::size_t>(i)])
          << "col " << d << " row " << i;
    }
  }
}

TEST(SellMatrix, FemOperatorRcmThenSellCutsGatherLines) {
  // The headline co-design composition on a production-like (shuffled)
  // numbering: RCM + SELL must touch far fewer x-lines per SpMV than the
  // padded ELL mirror of the shuffled operator.  The mesh must dwarf one
  // strip (1331 nodes ≫ 128 lanes) or every gather trivially touches most
  // of x and no numbering can help.
  const fem::Mesh mesh({.nx = 10, .ny = 10, .nz = 10, .shuffle_nodes = true});
  const auto adjacency = mesh.node_adjacency();
  CsrMatrix a(adjacency);
  for (int r = 0; r < a.rows(); ++r) {
    for (int c : a.row_cols(r)) a.add(r, c, c == r ? 27.0 : -1.0);
  }
  const int nn = a.rows();
  const std::vector<double> x = random_vector(nn, 5);
  std::vector<double> y(static_cast<std::size_t>(nn));

  sim::Vpu vpu_ell(platforms::riscv_vec());
  const EllMatrix e(a);
  solver::vspmv(vpu_ell, e, x, y, 128);

  const auto perm = fem::rcm_ordering(adjacency);
  const CsrMatrix ap = solver::permute_symmetric(a, perm);
  EXPECT_LT(solver::bandwidth(ap), solver::bandwidth(a));
  sim::Vpu vpu_sell(platforms::riscv_vec());
  const SellMatrix sp(ap, 128);
  std::vector<double> xp(static_cast<std::size_t>(nn));
  for (int q = 0; q < nn; ++q) {
    xp[static_cast<std::size_t>(q)] =
        x[static_cast<std::size_t>(perm[static_cast<std::size_t>(q)])];
  }
  std::vector<double> yp(static_cast<std::size_t>(nn));
  solver::vspmv(vpu_sell, sp, xp, yp, 128);

  // ≥ 30% fewer gathered lines — the acceptance floor of the format sweep
  EXPECT_LT(static_cast<double>(vpu_sell.counters().gather_lines_touched),
            0.7 * static_cast<double>(vpu_ell.counters().gather_lines_touched));
}

}  // namespace
