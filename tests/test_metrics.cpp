// Tests for the §2.2 metrics: definitions, identities, degenerate inputs.
#include <gtest/gtest.h>

#include "metrics/metrics.h"
#include "sim/counters.h"

namespace {

using vecfd::metrics::compute;
using vecfd::metrics::instruction_mix;
using vecfd::sim::Counters;
using vecfd::sim::InstrKind;

Counters sample_counters() {
  Counters c;
  // 10 scalar (6 alu + 4 mem), 2 vconfig, 8 vector (5 arith + 2 mem + 1 ctrl)
  for (int i = 0; i < 6; ++i) c.record(InstrKind::kScalarAlu, 1.0);
  for (int i = 0; i < 4; ++i) c.record(InstrKind::kScalarMem, 2.0);
  for (int i = 0; i < 2; ++i) c.record(InstrKind::kVConfig, 1.0);
  for (int i = 0; i < 5; ++i) c.record(InstrKind::kVArith, 34.0, 240);
  c.record(InstrKind::kVMemUnit, 40.0, 240);
  c.record(InstrKind::kVMemIndexed, 130.0, 240);
  c.record(InstrKind::kVCtrl, 19.0, 240);
  return c;
}

TEST(Metrics, InstructionMixMv) {
  const Counters c = sample_counters();
  const auto m = compute(c, 256);
  // iv = 8, it = 10 + 2 + 8 = 20
  EXPECT_DOUBLE_EQ(m.mv, 8.0 / 20.0);
  EXPECT_EQ(m.vector_instrs, 8u);
  EXPECT_EQ(m.total_instrs, 20u);
}

TEST(Metrics, VectorActivityAv) {
  const Counters c = sample_counters();
  const auto m = compute(c, 256);
  const double cv = 5 * 34.0 + 40.0 + 130.0 + 19.0;
  const double ct = cv + 6 * 1.0 + 4 * 2.0 + 2 * 1.0;
  EXPECT_DOUBLE_EQ(m.av, cv / ct);
  EXPECT_DOUBLE_EQ(m.vector_cycles, cv);
  EXPECT_DOUBLE_EQ(m.total_cycles, ct);
}

TEST(Metrics, VcpiAvlOccupancy) {
  const Counters c = sample_counters();
  const auto m = compute(c, 256);
  const double cv = 5 * 34.0 + 40.0 + 130.0 + 19.0;
  EXPECT_DOUBLE_EQ(m.vcpi, cv / 8.0);
  EXPECT_DOUBLE_EQ(m.avl, 240.0);
  EXPECT_DOUBLE_EQ(m.ev, 240.0 / 256.0);
}

TEST(Metrics, IdentityAvTimesCtEqualsCv) {
  const Counters c = sample_counters();
  const auto m = compute(c, 256);
  EXPECT_NEAR(m.av * m.total_cycles, m.vector_cycles, 1e-9);
  EXPECT_NEAR(m.ev * 256.0, m.avl, 1e-9);
  EXPECT_NEAR(m.vcpi * double(m.vector_instrs), m.vector_cycles, 1e-9);
}

TEST(Metrics, ZeroInstructionsYieldZeros) {
  const auto m = compute(Counters{}, 256);
  EXPECT_DOUBLE_EQ(m.mv, 0.0);
  EXPECT_DOUBLE_EQ(m.av, 0.0);
  EXPECT_DOUBLE_EQ(m.vcpi, 0.0);
  EXPECT_DOUBLE_EQ(m.avl, 0.0);
  EXPECT_DOUBLE_EQ(m.ev, 0.0);
}

TEST(Metrics, ScalarOnlyRunHasZeroMv) {
  Counters c;
  for (int i = 0; i < 100; ++i) c.record(InstrKind::kScalarAlu, 1.0);
  const auto m = compute(c, 256);
  EXPECT_DOUBLE_EQ(m.mv, 0.0);
  EXPECT_DOUBLE_EQ(m.av, 0.0);
  EXPECT_GT(m.total_cycles, 0.0);
}

TEST(Metrics, MixClassification) {
  const Counters c = sample_counters();
  const auto mix = instruction_mix(c);
  EXPECT_EQ(mix.arith, 5u);
  EXPECT_EQ(mix.mem_unit, 1u);
  EXPECT_EQ(mix.mem_indexed, 1u);
  EXPECT_EQ(mix.ctrl, 1u);
  EXPECT_EQ(mix.total(), 8u);
  EXPECT_DOUBLE_EQ(mix.memory_fraction(), 2.0 / 8.0);
}

TEST(Metrics, MemoryInstrFractionCountsBothSides) {
  const Counters c = sample_counters();
  // memory instructions: 4 scalar + 2 vector of 20 total
  EXPECT_DOUBLE_EQ(vecfd::metrics::memory_instr_fraction(c), 6.0 / 20.0);
}

TEST(Metrics, L1DcmPerKiloInstr) {
  Counters c;
  for (int i = 0; i < 2000; ++i) c.record(InstrKind::kScalarAlu, 1.0);
  c.l1_misses = 50;
  EXPECT_DOUBLE_EQ(vecfd::metrics::l1_dcm_per_kilo_instr(c), 25.0);
}

TEST(Counters, AdditionAndSubtractionRoundTrip) {
  const Counters a = sample_counters();
  Counters b = sample_counters();
  b.record(InstrKind::kVArith, 10.0, 64);
  const Counters sum = a + b;
  const Counters diff = sum - a;
  EXPECT_EQ(diff.varith_instrs, b.varith_instrs);
  EXPECT_DOUBLE_EQ(diff.vector_cycles, b.vector_cycles);
  EXPECT_EQ(diff.vl_sum, b.vl_sum);
}

TEST(Counters, InstrHierarchyTotals) {
  const Counters c = sample_counters();
  EXPECT_EQ(c.vmem_instrs(), 2u);
  EXPECT_EQ(c.vector_instrs(), 8u);
  EXPECT_EQ(c.total_instrs(), 20u);
}

}  // namespace
