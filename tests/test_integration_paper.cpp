// Integration tests asserting the paper-shape invariants end to end on a
// reduced mesh (960 elements, divisible by 16/32/48/240 for clean sweeps).
// These are the claims of §4/§5 at small scale.  At full scale the
// paper_scorecard binary measures them against the published values, and
// the bench_baseline ctest pins its numbers (BENCH_PR5.json); this suite
// also checks the scorecard's row table itself.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/experiment.h"
#include "paper_scorecard.h"
#include "trace/vehave_trace.h"

namespace {

using vecfd::core::Experiment;
using vecfd::core::Measurement;
using vecfd::miniapp::MiniApp;
using vecfd::miniapp::MiniAppConfig;
using vecfd::miniapp::OptLevel;
using vecfd::platforms::riscv_vec;
using vecfd::platforms::riscv_vec_scalar;

struct Fixture {
  // 8 x 10 x 12 = 960 elements
  Fixture() : mesh({.nx = 8, .ny = 10, .nz = 12}), state(mesh) {}
  vecfd::fem::Mesh mesh;
  vecfd::fem::State state;
};

Fixture& fixture() {
  static Fixture f;
  return f;
}

MiniAppConfig cfg_of(OptLevel opt, int vs) {
  MiniAppConfig c;
  c.opt = opt;
  c.vector_size = vs;
  return c;
}

TEST(PaperShape, ScalarHotPhasesDominate) {
  // Table 3: phases 6, 7, 3, 4 account for ~90% of scalar cycles and
  // phases 1 + 2 only a few percent.
  Fixture& f = fixture();
  const Experiment ex(f.mesh, f.state);
  const Measurement m =
      ex.run(riscv_vec_scalar(), cfg_of(OptLevel::kScalar, 48));
  const double top4 =
      m.phase_share(3) + m.phase_share(4) + m.phase_share(6) +
      m.phase_share(7);
  EXPECT_GT(top4, 0.80);
  EXPECT_LT(top4, 0.97);
  EXPECT_LT(m.phase_share(1) + m.phase_share(2), 0.10);
  // phase 6 is the most expensive phase
  for (int p = 1; p <= 8; ++p) {
    if (p == 6) continue;
    EXPECT_GE(m.phase_share(6), m.phase_share(p)) << "phase " << p;
  }
}

TEST(PaperShape, VanillaAutovecSpeedsUpSeveralFold) {
  // Figure 11: original auto-vectorization achieves 3–6x vs scalar.
  Fixture& f = fixture();
  const Experiment ex(f.mesh, f.state);
  const double scalar =
      ex.run(riscv_vec_scalar(), cfg_of(OptLevel::kScalar, 48)).total_cycles;
  const double vanilla =
      ex.run(riscv_vec(), cfg_of(OptLevel::kVanilla, 240)).total_cycles;
  const double speedup = scalar / vanilla;
  EXPECT_GT(speedup, 2.5);
  EXPECT_LT(speedup, 8.0);
}

TEST(PaperShape, UnvectorizedPhasesGrowAfterVectorization) {
  // Figure 4: phases 1 + 2 go from a few percent (scalar) to a large share
  // (vanilla vectorized).
  Fixture& f = fixture();
  const Experiment ex(f.mesh, f.state);
  const Measurement s =
      ex.run(riscv_vec_scalar(), cfg_of(OptLevel::kScalar, 240));
  const Measurement v =
      ex.run(riscv_vec(), cfg_of(OptLevel::kVanilla, 240));
  const double share_s = s.phase_share(1) + s.phase_share(2);
  const double share_v = v.phase_share(1) + v.phase_share(2);
  EXPECT_GT(share_v, 3.0 * share_s);
  EXPECT_GT(share_v, 0.15);
}

TEST(PaperShape, Vec2IsCounterProductiveOnPhase2) {
  // Figure 5: enabling vectorization of phase 2 with the dof loop innermost
  // degrades phase-2 performance.
  Fixture& f = fixture();
  const Experiment ex(f.mesh, f.state);
  for (int vs : {48, 240}) {
    const double vanilla =
        ex.run(riscv_vec(), cfg_of(OptLevel::kVanilla, vs)).phase_cycles(2);
    const double vec2 =
        ex.run(riscv_vec(), cfg_of(OptLevel::kVec2, vs)).phase_cycles(2);
    EXPECT_GT(vec2, vanilla) << "vs=" << vs;
  }
}

TEST(PaperShape, Vec2AvlIsFour) {
  // the Vehave diagnosis: phase-2 AVL ≈ 4 under VEC2
  Fixture& f = fixture();
  MiniApp app(f.mesh, f.state, cfg_of(OptLevel::kVec2, 48));
  vecfd::sim::Vpu vpu(riscv_vec());
  vecfd::trace::VehaveTrace tr(1u << 22);
  vpu.set_observer(&tr);
  (void)app.run(vpu);
  EXPECT_GT(tr.avl(2), 3.0);
  EXPECT_LT(tr.avl(2), 4.5);
}

TEST(PaperShape, IVec2SpeedsUpPhase2Severalfold) {
  // Figure 6: interchanged phase 2 reaches ~7x vs the original at high VS.
  Fixture& f = fixture();
  const Experiment ex(f.mesh, f.state);
  const double vanilla =
      ex.run(riscv_vec(), cfg_of(OptLevel::kVanilla, 240)).phase_cycles(2);
  const double ivec2 =
      ex.run(riscv_vec(), cfg_of(OptLevel::kIVec2, 240)).phase_cycles(2);
  const double speedup = vanilla / ivec2;
  EXPECT_GT(speedup, 3.0);
  EXPECT_LT(speedup, 12.0);
}

TEST(PaperShape, IVec2AvlEqualsVectorSize) {
  Fixture& f = fixture();
  MiniApp app(f.mesh, f.state, cfg_of(OptLevel::kIVec2, 240));
  vecfd::sim::Vpu vpu(riscv_vec());
  vecfd::trace::VehaveTrace tr(1u << 22);
  vpu.set_observer(&tr);
  (void)app.run(vpu);
  EXPECT_NEAR(tr.avl(2), 240.0, 12.0);  // index loads included
}

TEST(PaperShape, Vec1ImprovesPhase1Modestly) {
  // Figure 7: fission yields 1.03–2x on phase 1 (work A stays scalar).
  Fixture& f = fixture();
  const Experiment ex(f.mesh, f.state);
  for (int vs : {48, 240}) {
    const double fused =
        ex.run(riscv_vec(), cfg_of(OptLevel::kIVec2, vs)).phase_cycles(1);
    const double split =
        ex.run(riscv_vec(), cfg_of(OptLevel::kVec1, vs)).phase_cycles(1);
    const double speedup = fused / split;
    EXPECT_GT(speedup, 1.02) << vs;
    EXPECT_LT(speedup, 3.0) << vs;
  }
}

TEST(PaperShape, OccupancyTracksVectorSize) {
  // Figure 10: Ev ≈ min(VS, vlmax)/vlmax on the vectorized phases.
  Fixture& f = fixture();
  const Experiment ex(f.mesh, f.state);
  for (int vs : {48, 96, 240}) {
    const Measurement m = ex.run(riscv_vec(), cfg_of(OptLevel::kVec1, vs));
    for (int p : {3, 4, 6, 7}) {
      EXPECT_NEAR(m.phase_metrics[p].ev, vs / 256.0, 0.02)
          << "phase " << p << " vs=" << vs;
    }
  }
}

TEST(PaperShape, MemoryInstructionsDominateVectorMix) {
  // §4: "almost 70% of vector instructions are memory type"
  Fixture& f = fixture();
  const Experiment ex(f.mesh, f.state);
  const Measurement m = ex.run(riscv_vec(), cfg_of(OptLevel::kVanilla, 240));
  const auto mix = vecfd::metrics::instruction_mix(m.total);
  EXPECT_GT(mix.memory_fraction(), 0.40);
  EXPECT_LT(mix.memory_fraction(), 0.80);
}

TEST(PaperShape, CumulativeOptimizationOrdering) {
  // Figure 11 at a fixed VECTOR_SIZE: scalar slowest; VEC2 worse than
  // vanilla; IVEC2 better than vanilla; VEC1 best.
  Fixture& f = fixture();
  const Experiment ex(f.mesh, f.state);
  const int vs = 240;
  const double scalar =
      ex.run(riscv_vec_scalar(), cfg_of(OptLevel::kScalar, vs)).total_cycles;
  const double vanilla =
      ex.run(riscv_vec(), cfg_of(OptLevel::kVanilla, vs)).total_cycles;
  const double vec2 =
      ex.run(riscv_vec(), cfg_of(OptLevel::kVec2, vs)).total_cycles;
  const double ivec2 =
      ex.run(riscv_vec(), cfg_of(OptLevel::kIVec2, vs)).total_cycles;
  const double vec1 =
      ex.run(riscv_vec(), cfg_of(OptLevel::kVec1, vs)).total_cycles;
  EXPECT_GT(scalar, vanilla);
  EXPECT_GT(vec2, vanilla);   // VEC2 regression
  EXPECT_LT(ivec2, vanilla);  // IVEC2 win
  EXPECT_LE(vec1, ivec2);     // VEC1 on top
  const double final_speedup = scalar / vec1;
  EXPECT_GT(final_speedup, 4.0);
  // can exceed the 8x lane count on this small mesh: the scalar baseline
  // pays full cache-miss exposure while vector streams overlap fills
  EXPECT_LT(final_speedup, 12.0);
}

TEST(PaperShape, PortabilityNoRegressionOnOtherPlatforms) {
  // Figure 12: the optimizations must not hurt on SX-Aurora or MN4.
  Fixture& f = fixture();
  const Experiment ex(f.mesh, f.state);
  for (const auto& machine :
       {vecfd::platforms::sx_aurora(), vecfd::platforms::mn4_avx512()}) {
    const double vanilla =
        ex.run(machine, cfg_of(OptLevel::kVanilla, 240)).total_cycles;
    const double opt =
        ex.run(machine, cfg_of(OptLevel::kVec1, 240)).total_cycles;
    EXPECT_LE(opt, vanilla * 1.01) << machine.name;
  }
}

TEST(PaperScorecard, CoversEveryFigureAndTable) {
  // The static row table alone, no measurement: every artifact of the
  // evaluation, and the §4 FMA anchor, has a claim, every row's baseline key is unique and a bare
  // word bench_to_json's line reader round-trips, and every value row
  // quotes a finite, non-zero published number to take the error against.
  using vecfd::bench::scorecard::kRows;
  using vecfd::bench::scorecard::Row;
  std::vector<std::string> artifacts = {"§2.3", "§4"};
  for (int f = 2; f <= 13; ++f) artifacts.push_back("Fig " + std::to_string(f));
  for (int t = 3; t <= 6; ++t) {
    artifacts.push_back("Table " + std::to_string(t));
  }
  for (const std::string& a : artifacts) {
    EXPECT_TRUE(std::any_of(std::begin(kRows), std::end(kRows),
                            [&](const Row& r) { return a == r.source; }))
        << a << " has no scorecard row";
  }
  std::set<std::string> keys;
  std::set<std::string> claims;
  for (const Row& r : kRows) {
    EXPECT_NE(std::find(artifacts.begin(), artifacts.end(), r.source),
              artifacts.end())
        << r.key << ": unknown source '" << r.source << "'";
    EXPECT_TRUE(keys.insert(r.key).second) << "duplicate key " << r.key;
    EXPECT_TRUE(claims.insert(r.claim).second) << "duplicate claim "
                                               << r.claim;
    const std::string key = r.key;
    EXPECT_FALSE(key.empty());
    EXPECT_TRUE(std::all_of(key.begin(), key.end(), [](unsigned char c) {
      return std::islower(c) || std::isdigit(c) || c == '_';
    })) << "key '" << key << "' is not a bare [a-z0-9_] word";
    EXPECT_NE(r.model, nullptr) << r.key;
    if (r.kind == Row::kValue) {
      EXPECT_TRUE(std::isfinite(r.published) && r.published != 0.0)
          << r.key << ": published value " << r.published;
    }
  }
}

TEST(PaperScorecard, EvidenceLookupRejectsAmbiguousPoints) {
  // A variant point (a semi-implicit run, an ablated machine that kept its
  // name) must never be read in place of the baseline run it resembles.
  using vecfd::bench::scorecard::config;
  using vecfd::bench::scorecard::Evidence;
  using vecfd::bench::scorecard::semi_implicit_vec1;
  auto run = [](const MiniAppConfig& app, double cycles) {
    Measurement m;
    m.machine = riscv_vec();
    m.app = app;
    m.total_cycles = cycles;
    return m;
  };
  Evidence e;
  e.runs = {run(semi_implicit_vec1(240, false), 1.0),
            run(config(240, OptLevel::kVec1), 2.0),
            run(semi_implicit_vec1(256, true), 3.0)};
  EXPECT_EQ(e.riscv(240, OptLevel::kVec1).total_cycles, 2.0);
  EXPECT_EQ(e.at("riscv-vec", semi_implicit_vec1(240, false)).total_cycles,
            1.0);
  EXPECT_THROW((void)e.riscv(256, OptLevel::kVec1), std::out_of_range);
  e.runs.push_back(run(config(240, OptLevel::kVec1), 4.0));
  EXPECT_THROW((void)e.riscv(240, OptLevel::kVec1), std::logic_error);
}

}  // namespace
