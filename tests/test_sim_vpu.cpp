// Tests for the Vpu execution engine: data correctness of every operation,
// counter accounting, phase attribution, vl semantics, failure modes.
#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <vector>

#include "platforms/platforms.h"
#include "sim/vpu.h"

namespace {

using vecfd::platforms::riscv_vec;
using vecfd::platforms::riscv_vec_scalar;
using vecfd::sim::Vec;
using vecfd::sim::Vpu;

Vpu make_vpu() { return Vpu(riscv_vec()); }

TEST(Vpu, SetVlClampsToVlmax) {
  Vpu v = make_vpu();
  EXPECT_EQ(v.set_vl(1000), 256);
  EXPECT_EQ(v.vl(), 256);
  EXPECT_EQ(v.set_vl(17), 17);
  EXPECT_EQ(v.counters().vconfig_instrs, 2u);
}

TEST(Vpu, SetVlRejectsNonPositive) {
  Vpu v = make_vpu();
  EXPECT_THROW(v.set_vl(0), std::invalid_argument);
  EXPECT_THROW(v.set_vl(-3), std::invalid_argument);
}

TEST(Vpu, VectorOpsThrowOnScalarMachine) {
  Vpu v{riscv_vec_scalar()};
  EXPECT_THROW(v.set_vl(8), std::logic_error);
  EXPECT_THROW(v.vsplat(1.0), std::logic_error);
}

TEST(Vpu, LoadComputeStoreRoundTrip) {
  Vpu v = make_vpu();
  std::vector<double> a(64), b(64), out(64);
  std::iota(a.begin(), a.end(), 1.0);
  std::iota(b.begin(), b.end(), 100.0);
  v.set_vl(64);
  const Vec va = v.vload(a.data());
  const Vec vb = v.vload(b.data());
  const Vec vc = v.vfma(va, vb, va);  // a*b + a
  v.vstore(out.data(), vc);
  for (int i = 0; i < 64; ++i) {
    EXPECT_DOUBLE_EQ(out[i], a[i] * b[i] + a[i]);
  }
  EXPECT_EQ(v.counters().vmem_unit_instrs, 3u);
  EXPECT_EQ(v.counters().varith_instrs, 1u);
  EXPECT_EQ(v.counters().flops, 2u * 64u);
}

TEST(Vpu, ArithmeticSemantics) {
  Vpu v = make_vpu();
  std::vector<double> a{4.0, 9.0, 16.0, 25.0};
  v.set_vl(4);
  const Vec va = v.vload(a.data());
  const Vec sum = v.vadd(va, va);
  const Vec diff = v.vsub(sum, va);
  const Vec prod = v.vmul(va, va);
  const Vec quot = v.vdiv(prod, va);
  const Vec root = v.vsqrt(va);
  const Vec cbrt = v.vcbrt(va);
  const Vec neg = v.vfnma(va, v.vsplat(1.0), v.vsplat(10.0));  // 10 - a
  for (int i = 0; i < 4; ++i) {
    EXPECT_DOUBLE_EQ(sum[i], 2.0 * a[i]);
    EXPECT_DOUBLE_EQ(diff[i], a[i]);
    EXPECT_DOUBLE_EQ(prod[i], a[i] * a[i]);
    EXPECT_DOUBLE_EQ(quot[i], a[i]);
    EXPECT_DOUBLE_EQ(root[i], std::sqrt(a[i]));
    EXPECT_DOUBLE_EQ(cbrt[i], std::cbrt(a[i]));
    EXPECT_DOUBLE_EQ(neg[i], 10.0 - a[i]);
  }
}

TEST(Vpu, VectorScalarForms) {
  Vpu v = make_vpu();
  std::vector<double> a{1.0, 2.0, 3.0};
  v.set_vl(3);
  const Vec va = v.vload(a.data());
  const Vec m = v.vmul_s(va, 2.5);
  const Vec s = v.vadd_s(va, -1.0);
  const Vec f = v.vfma_s(va, 3.0, m);
  for (int i = 0; i < 3; ++i) {
    EXPECT_DOUBLE_EQ(m[i], a[i] * 2.5);
    EXPECT_DOUBLE_EQ(s[i], a[i] - 1.0);
    EXPECT_DOUBLE_EQ(f[i], a[i] * 3.0 + m[i]);
  }
}

TEST(Vpu, GatherScatterWithIndexVector) {
  Vpu v = make_vpu();
  std::vector<double> table(100);
  std::iota(table.begin(), table.end(), 0.0);
  std::vector<std::int32_t> idx{7, 42, 3, 99};
  std::vector<double> out(100, 0.0);
  v.set_vl(4);
  const Vec vi = v.vload_i32(idx.data());
  const Vec g = v.vgather(table.data(), vi);
  for (int i = 0; i < 4; ++i) EXPECT_DOUBLE_EQ(g[i], double(idx[i]));
  v.vscatter(out.data(), vi, g);
  EXPECT_DOUBLE_EQ(out[42], 42.0);
  EXPECT_DOUBLE_EQ(out[99], 99.0);
  EXPECT_EQ(v.counters().vmem_indexed_instrs, 2u);
}

TEST(Vpu, StridedAccess) {
  Vpu v = make_vpu();
  std::vector<double> m(12);
  std::iota(m.begin(), m.end(), 0.0);
  v.set_vl(4);
  const Vec col = v.vload_strided(m.data() + 1, 3);  // 1, 4, 7, 10
  EXPECT_DOUBLE_EQ(col[0], 1.0);
  EXPECT_DOUBLE_EQ(col[3], 10.0);
  std::vector<double> out(12, 0.0);
  v.vstore_strided(out.data(), 3, col);
  EXPECT_DOUBLE_EQ(out[0], 1.0);
  EXPECT_DOUBLE_EQ(out[9], 10.0);
  EXPECT_EQ(v.counters().vmem_strided_instrs, 2u);
}

TEST(Vpu, ControlLaneOps) {
  Vpu v = make_vpu();
  v.set_vl(5);
  const Vec s = v.vsplat(3.25);
  ASSERT_EQ(s.size(), 5);
  for (int k = 0; k < 5; ++k) EXPECT_DOUBLE_EQ(s[k], 3.25);
  EXPECT_EQ(v.counters().vctrl_instrs, 1u);
  EXPECT_EQ(v.counters().vl_sum, 5u);
  EXPECT_EQ(v.counters().flops, 0u);
}

TEST(Vpu, ReductionSemanticsAndClassification) {
  Vpu v = make_vpu();
  std::vector<double> a{1, 2, 3, 4, 5, 6, 7, 8};
  v.set_vl(8);
  const Vec va = v.vload(a.data());
  EXPECT_DOUBLE_EQ(v.vredsum(va), 36.0);
  EXPECT_EQ(v.counters().varith_instrs, 1u);
}

TEST(Vpu, OperandLengthMismatchThrows) {
  Vpu v = make_vpu();
  std::vector<double> a(8, 1.0);
  v.set_vl(8);
  const Vec va = v.vload(a.data());
  v.set_vl(4);
  const Vec vb = v.vload(a.data());
  EXPECT_THROW(v.vadd(va, vb), std::invalid_argument);
  EXPECT_THROW(v.vscatter(a.data(), va, vb), std::invalid_argument);
}

TEST(Vpu, ScalarHelpersComputeAndCount) {
  Vpu v = make_vpu();
  EXPECT_DOUBLE_EQ(v.sadd(2, 3), 5.0);
  EXPECT_DOUBLE_EQ(v.ssub(2, 3), -1.0);
  EXPECT_DOUBLE_EQ(v.smul(2, 3), 6.0);
  EXPECT_DOUBLE_EQ(v.sdiv(3, 2), 1.5);
  EXPECT_DOUBLE_EQ(v.sfma(2, 3, 4), 10.0);
  EXPECT_DOUBLE_EQ(v.sfnma(2, 3, 4), -2.0);
  EXPECT_DOUBLE_EQ(v.ssqrt(9), 3.0);
  EXPECT_DOUBLE_EQ(v.scbrt(27), 3.0);
  EXPECT_EQ(v.counters().scalar_alu_instrs, 8u);
  EXPECT_EQ(v.counters().flops, 1u + 1 + 1 + 1 + 2 + 2 + 1 + 1);
}

TEST(Vpu, ScalarMemoryTouchesCache) {
  Vpu v = make_vpu();
  double x = 1.5;
  EXPECT_DOUBLE_EQ(v.sload(&x), 1.5);
  v.sstore(&x, 2.5);
  EXPECT_DOUBLE_EQ(x, 2.5);
  EXPECT_EQ(v.counters().scalar_mem_instrs, 2u);
  EXPECT_EQ(v.counters().l1_accesses, 2u);
  EXPECT_EQ(v.counters().l1_misses, 1u);  // second access hits
}

TEST(Vpu, PhaseAttribution) {
  Vpu v = make_vpu();
  v.profiler().begin(3);
  v.sarith(10);
  v.profiler().end(3);
  v.sarith(5);
  EXPECT_EQ(v.profiler().phase(3).scalar_alu_instrs, 10u);
  EXPECT_EQ(v.profiler().phase(0).scalar_alu_instrs, 5u);
  EXPECT_EQ(v.counters().scalar_alu_instrs, 15u);
}

TEST(Vpu, PhaseMisuseThrows) {
  Vpu v = make_vpu();
  v.profiler().begin(1);
  EXPECT_THROW(v.profiler().begin(2), std::logic_error);
  EXPECT_THROW(v.profiler().end(2), std::logic_error);
  v.profiler().end(1);
  EXPECT_THROW(v.profiler().end(1), std::logic_error);
  EXPECT_THROW(v.profiler().begin(0), std::out_of_range);
  // phase 9 (the Krylov solve) is in range by default; 10 is not
  v.profiler().begin(vecfd::sim::kDefaultNumPhases);
  v.profiler().end(vecfd::sim::kDefaultNumPhases);
  EXPECT_THROW(v.profiler().begin(vecfd::sim::kDefaultNumPhases + 1),
               std::out_of_range);
}

TEST(Vpu, ResetClearsEverything) {
  Vpu v = make_vpu();
  double x = 0.0;
  v.sstore(&x, 1.0);
  v.set_vl(8);
  v.vsplat(1.0);
  v.reset();
  EXPECT_EQ(v.counters().total_instrs(), 0u);
  EXPECT_DOUBLE_EQ(v.counters().total_cycles(), 0.0);
  EXPECT_EQ(v.vl(), v.vlmax());
  // cache was flushed: next access misses again
  v.sload(&x);
  EXPECT_EQ(v.counters().l1_misses, 1u);
}

TEST(Vpu, VlSumTracksVectorLengths) {
  Vpu v = make_vpu();
  std::vector<double> a(300, 1.0);
  v.set_vl(300);  // clamps to 256
  const Vec x = v.vload(a.data());
  v.set_vl(40);
  const Vec y = v.vload(a.data());
  (void)x;
  (void)y;
  EXPECT_EQ(v.counters().vl_sum, 256u + 40u);
}

TEST(Vpu, SecondsFollowFrequency) {
  Vpu v = make_vpu();
  const std::uint64_t n = 50 * 1000 * 1000;
  v.sarith(n);  // n instructions at scalar_cpi each
  const double expect =
      double(n) * v.config().scalar_cpi / (v.config().frequency_mhz * 1e6);
  EXPECT_NEAR(v.seconds(), expect, 1e-9);
}

TEST(Vpu, InvalidConfigRejected) {
  vecfd::sim::MachineConfig bad = riscv_vec();
  bad.vlmax = 0;
  EXPECT_THROW(Vpu{bad}, std::invalid_argument);
  bad = riscv_vec();
  bad.lanes = -1;
  EXPECT_THROW(Vpu{bad}, std::invalid_argument);
}

}  // namespace
