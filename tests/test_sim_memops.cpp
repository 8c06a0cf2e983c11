// Tests for the memory side of the Vpu: cache-counter interaction of every
// access pattern, the vl-dependent miss-overlap interpolation, and the
// folded set-index behaviour.
#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "platforms/platforms.h"
#include "sim/vpu.h"

namespace {

using vecfd::platforms::riscv_vec;
using vecfd::sim::MachineConfig;
using vecfd::sim::TimingModel;
using vecfd::sim::Vec;
using vecfd::sim::Vpu;

MachineConfig machine_with_penalties() {
  MachineConfig m = riscv_vec();
  m.memory.l2_latency = 10.0;
  m.memory.mem_latency = 100.0;
  return m;
}

TEST(VpuMem, UnitStrideLoadTouchesWholeLines) {
  Vpu v{machine_with_penalties()};
  std::vector<double> a(256, 1.0);
  v.set_vl(256);
  (void)v.vload(a.data());
  // 256 doubles = 2048 bytes = 32-33 lines depending on alignment
  EXPECT_GE(v.counters().l1_accesses, 32u);
  EXPECT_LE(v.counters().l1_accesses, 33u);
  EXPECT_EQ(v.counters().l1_misses, v.counters().l1_accesses);  // cold
}

TEST(VpuMem, RepeatedLoadHitsInL1) {
  Vpu v{machine_with_penalties()};
  std::vector<double> a(64, 1.0);
  v.set_vl(64);
  (void)v.vload(a.data());
  const auto misses_after_first = v.counters().l1_misses;
  (void)v.vload(a.data());
  EXPECT_EQ(v.counters().l1_misses, misses_after_first);
}

TEST(VpuMem, GatherTouchesOneLinePerElement) {
  Vpu v{machine_with_penalties()};
  std::vector<double> table(4096, 1.0);
  std::vector<std::int32_t> idx(16);
  for (int i = 0; i < 16; ++i) idx[i] = i * 64;  // distinct lines
  v.set_vl(16);
  const Vec vi = v.vload_i32(idx.data());
  const auto before = v.counters().l1_accesses;
  (void)v.vgather(table.data(), vi);
  EXPECT_EQ(v.counters().l1_accesses - before, 16u);
}

TEST(VpuMem, ShortUnitLoadsExposeMoreMissLatencyThanLongOnes) {
  // the VEC2 effect: a vl=4 load behaves like a scalar access, a vl=256
  // stream hides almost everything
  const MachineConfig m = machine_with_penalties();
  std::vector<double> a(4096, 1.0);

  auto cost_per_line = [&](int vl) {
    Vpu v{m};
    v.set_vl(vl);
    (void)v.vload(a.data());  // cold: every line misses
    const double base = TimingModel(m).vmem_unit_cycles(vl);
    const double total = v.counters().vector_cycles;
    const double penalty = total - base;
    return penalty / double(v.counters().l1_misses);
  };
  const double short_cost = cost_per_line(4);
  const double long_cost = cost_per_line(256);
  EXPECT_GT(short_cost, 5.0 * long_cost);
}

TEST(VpuMem, StridedStoreExposesMostMissLatency) {
  MachineConfig m = machine_with_penalties();
  Vpu v{m};
  std::vector<double> dst(64 * 64, 0.0);
  v.set_vl(8);
  const Vec x = v.vsplat(1.0);
  const double base = TimingModel(m).vmem_strided_cycles(8);
  const double before = v.counters().vector_cycles;
  v.vstore_strided(dst.data(), 64, x);  // 8 distinct lines, all cold
  const double penalty = v.counters().vector_cycles - before - base;
  // 8 cold misses at l1->mem (110) with strided exposure 0.9
  EXPECT_NEAR(penalty, 8 * 110.0 * m.miss_overlap_strided, 1.0);
}

TEST(VpuMem, ScalarAccessPaysFullPenalty) {
  MachineConfig m = machine_with_penalties();
  Vpu v{m};
  double x = 0.0;
  const double before = v.counters().scalar_cycles;
  (void)v.sload(&x);  // cold: L1+L2 miss
  const double cost = v.counters().scalar_cycles - before;
  EXPECT_NEAR(cost, m.scalar_mem_cpi + 110.0, 1e-9);
  (void)v.sload(&x);  // hit
  const double hit_cost = v.counters().scalar_cycles - before - cost;
  EXPECT_NEAR(hit_cost, m.scalar_mem_cpi, 1e-9);
}

TEST(VpuMem, L2MissesCountedSeparately) {
  MachineConfig m = machine_with_penalties();
  m.memory.l1.size_bytes = 1024;  // tiny L1, normal L2
  m.memory.l1.associativity = 2;
  Vpu v{m};
  // stream 16 KB twice: second pass hits L2, misses L1
  std::vector<double> a(2048, 1.0);
  v.set_vl(256);
  for (int pass = 0; pass < 2; ++pass) {
    for (int off = 0; off < 2048; off += 256) {
      (void)v.vload(a.data() + off);
    }
  }
  EXPECT_GT(v.counters().l1_misses, 256u);  // both passes miss L1
  EXPECT_LE(v.counters().l2_misses, 260u);  // only the first misses L2
}

TEST(VpuMem, FoldedIndexSpreadsPageAlignedBuffers) {
  // buffers at 4 KB stride would collide catastrophically in a modulo
  // cache; folding keeps them spread across sets
  vecfd::mem::Cache c({.size_bytes = 64 * 1024,
                       .line_bytes = 64,
                       .associativity = 2,
                       .name = "t"});
  // 64 KB / (64·2) = 512 sets; touch 64 lines, each 512 lines apart
  // (the modulo-mapping worst case: all to set 0)
  for (int i = 0; i < 64; ++i) {
    c.access(static_cast<std::uintptr_t>(i) * 512 * 64);
  }
  // a second pass hits every line that stayed resident; with 2-way sets
  // and modulo mapping the LRU pair would thrash and nothing would hit
  const std::uint64_t first_pass_misses = c.misses();
  for (int i = 0; i < 64; ++i) {
    c.access(static_cast<std::uintptr_t>(i) * 512 * 64);
  }
  EXPECT_LE(c.misses() - first_pass_misses, 32u);
}

TEST(VpuMem, TraceObserverSeesMemoryOps) {
  Vpu v{riscv_vec()};
  struct Probe final : vecfd::sim::InstrObserver {
    int mem = 0;
    void on_instr(int, vecfd::sim::InstrKind k, int, double) override {
      if (vecfd::sim::is_vector_memory(k)) ++mem;
    }
  } probe;
  v.set_observer(&probe);
  std::vector<double> a(16, 1.0);
  std::vector<std::int32_t> idx(16, 0);
  v.set_vl(16);
  const Vec vi = v.vload_i32(idx.data());
  (void)v.vgather(a.data(), vi);
  (void)v.vload_strided(a.data(), 1);
  v.vstore(a.data(), v.vsplat(2.0));
  EXPECT_EQ(probe.mem, 4);
}

}  // namespace
