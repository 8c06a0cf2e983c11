// Tests that the host-compiled loop-order variants (the real-hardware
// portability subjects) all compute identical results.
#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <random>
#include <vector>

#include "fem/element.h"
#include "miniapp/native_kernels.h"

namespace {

namespace native = vecfd::miniapp::native;
using vecfd::fem::kDim;
using vecfd::fem::kDofs;
using vecfd::fem::kGauss;
using vecfd::fem::kNodes;

struct GatherFixture {
  explicit GatherFixture(int vector_size, int nnode = 1000)
      : vs(vector_size) {
    std::mt19937 rng(11);
    std::uniform_int_distribution<int> node(0, nnode - 1);
    std::uniform_real_distribution<double> val(-1.0, 1.0);
    lnods.resize(static_cast<std::size_t>(kNodes) * vs);
    for (auto& n : lnods) n = node(rng);
    unk.resize(static_cast<std::size_t>(nnode) * kDofs);
    unk_old.resize(unk.size());
    for (auto& v : unk) v = val(rng);
    for (auto& v : unk_old) v = val(rng);
    elunk.assign(static_cast<std::size_t>(kDofs) * kNodes * vs, 0.0);
    elvel_old.assign(static_cast<std::size_t>(kDim) * kNodes * vs, 0.0);
  }
  int vs;
  std::vector<std::int32_t> lnods;
  std::vector<double> unk, unk_old, elunk, elvel_old;
};

TEST(NativeKernels, Phase2VariantsAgree) {
  for (int vs : {16, 64, 240}) {
    GatherFixture a(vs), b(vs), c(vs);
    const int bound = vs;
    native::phase2_vanilla(a.lnods.data(), a.unk.data(), a.unk_old.data(),
                           a.elunk.data(), a.elvel_old.data(), &bound);
    native::phase2_dof_inner(b.lnods.data(), b.unk.data(), b.unk_old.data(),
                             b.elunk.data(), b.elvel_old.data(), vs);
    native::phase2_ivect_inner(c.lnods.data(), c.unk.data(),
                               c.unk_old.data(), c.elunk.data(),
                               c.elvel_old.data(), vs);
    EXPECT_EQ(a.elunk, b.elunk) << vs;
    EXPECT_EQ(a.elunk, c.elunk) << vs;
    EXPECT_EQ(a.elvel_old, b.elvel_old) << vs;
    EXPECT_EQ(a.elvel_old, c.elvel_old) << vs;
  }
}

TEST(NativeKernels, Phase2GathersTheRightValues) {
  GatherFixture f(8);
  const int bound = 8;
  native::phase2_vanilla(f.lnods.data(), f.unk.data(), f.unk_old.data(),
                         f.elunk.data(), f.elvel_old.data(), &bound);
  for (int a = 0; a < kNodes; ++a) {
    for (int iv = 0; iv < 8; ++iv) {
      const int n = f.lnods[a * 8 + iv];
      for (int dof = 0; dof < kDofs; ++dof) {
        EXPECT_DOUBLE_EQ(f.elunk[(dof * kNodes + a) * 8 + iv],
                         f.unk[static_cast<std::size_t>(n) * kDofs + dof]);
      }
    }
  }
}

TEST(NativeKernels, Phase1FusedAndSplitAgree) {
  const int vs = 64;
  const int nelem = 256;
  const int nnode = 1500;
  std::mt19937 rng(5);
  std::uniform_int_distribution<int> node(0, nnode - 1);
  std::uniform_int_distribution<int> mat(0, 1);
  std::uniform_real_distribution<double> val(-1.0, 1.0);
  std::vector<std::int32_t> mesh_lnods(
      static_cast<std::size_t>(nelem) * kNodes);
  for (auto& n : mesh_lnods) n = node(rng);
  std::vector<std::int32_t> elmat(nelem);
  for (auto& m : elmat) m = mat(rng);
  std::vector<double> coords(static_cast<std::size_t>(nnode) * kDim);
  for (auto& c : coords) c = val(rng);

  auto run = [&](auto&& fn) {
    std::vector<std::int32_t> lnods(static_cast<std::size_t>(kNodes) * vs);
    std::vector<double> dtfac(vs);
    std::vector<double> elcod(static_cast<std::size_t>(kDim) * kNodes * vs);
    fn(mesh_lnods.data(), elmat.data(), coords.data(), lnods.data(),
       dtfac.data(), elcod.data(), 32, vs, 20.0);
    return std::make_tuple(lnods, dtfac, elcod);
  };
  const auto [l1, d1, e1] = run(native::phase1_fused);
  const auto [l2, d2, e2] = run(native::phase1_split);
  EXPECT_EQ(l1, l2);
  EXPECT_EQ(d1, d2);
  EXPECT_EQ(e1, e2);
}

TEST(NativeKernels, ConvBlockMatchesNaive) {
  const int vs = 32;
  std::mt19937 rng(9);
  std::uniform_real_distribution<double> val(-1.0, 1.0);
  std::vector<double> wmat(static_cast<std::size_t>(kGauss) * kNodes * vs);
  std::vector<double> dmat(wmat.size());
  for (auto& v : wmat) v = val(rng);
  for (auto& v : dmat) v = val(rng);
  std::vector<double> conv(static_cast<std::size_t>(kNodes) * kNodes * vs);
  native::conv_block(wmat.data(), dmat.data(), conv.data(), vs);
  for (int a = 0; a < kNodes; ++a) {
    for (int b = 0; b < kNodes; ++b) {
      for (int iv = 0; iv < vs; iv += 7) {
        double expect = 0.0;
        for (int g = 0; g < kGauss; ++g) {
          expect = wmat[(g * kNodes + a) * vs + iv] *
                       dmat[(g * kNodes + b) * vs + iv] +
                   expect;
        }
        // conv_block is compiled -march=native: FMA contraction may fuse
        // w*d+acc, so compare with a tight tolerance instead of bit-exact
        EXPECT_NEAR(conv[(a * kNodes + b) * vs + iv], expect,
                    1e-12 * std::max(1.0, std::fabs(expect)));
      }
    }
  }
}

}  // namespace
