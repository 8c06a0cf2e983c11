// The central correctness property of the reproduction: every optimization
// level, VECTOR_SIZE and scheme computes the same global system as the
// golden scalar reference — the paper's refactors are performance
// transformations, never semantic ones.
#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "miniapp/driver.h"
#include "platforms/platforms.h"
#include "support/reference_assembly.h"

namespace {

using vecfd::fem::assemble_global;
using vecfd::fem::kDim;
using vecfd::fem::Mesh;
using vecfd::fem::Scheme;
using vecfd::fem::ShapeTable;
using vecfd::fem::State;
using vecfd::miniapp::MiniApp;
using vecfd::miniapp::MiniAppConfig;
using vecfd::miniapp::MiniAppResult;
using vecfd::miniapp::OptLevel;
using vecfd::platforms::riscv_vec;
using vecfd::platforms::riscv_vec_scalar;

// 4x4x4 = 64 elements: covers multi-chunk runs for vs <= 64 and
// tail-padding for vs that do not divide 64.
struct Fixture {
  Fixture() : mesh({.nx = 4, .ny = 4, .nz = 4}), state(mesh), shape() {}
  Mesh mesh;
  State state;
  ShapeTable shape;
};

Fixture& fixture() {
  static Fixture f;
  return f;
}

void expect_rhs_matches(const std::vector<double>& got,
                        const std::vector<double>& want,
                        const std::string& label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  double max_rel = 0.0;
  for (std::size_t i = 0; i < got.size(); ++i) {
    const double scale = std::max(1.0, std::fabs(want[i]));
    max_rel = std::max(max_rel, std::fabs(got[i] - want[i]) / scale);
  }
  EXPECT_LT(max_rel, 1e-12) << label;
}

class Equivalence
    : public ::testing::TestWithParam<std::tuple<OptLevel, int>> {};

TEST_P(Equivalence, ExplicitRhsMatchesReference) {
  Fixture& f = fixture();
  const auto [opt, vs] = GetParam();
  MiniAppConfig cfg;
  cfg.opt = opt;
  cfg.vector_size = vs;
  cfg.scheme = Scheme::kExplicit;
  MiniApp app(f.mesh, f.state, cfg);
  const auto machine =
      opt == OptLevel::kScalar ? riscv_vec_scalar() : riscv_vec();
  vecfd::sim::Vpu vpu(machine);
  const MiniAppResult r = app.run(vpu);

  const auto ref = assemble_global(f.mesh, f.state, f.shape,
                                   Scheme::kExplicit);
  expect_rhs_matches(r.rhs, ref.rhs,
                     std::string(to_string(opt)) + "/vs=" +
                         std::to_string(vs));
}

INSTANTIATE_TEST_SUITE_P(
    OptByVs, Equivalence,
    ::testing::Combine(::testing::Values(OptLevel::kScalar,
                                         OptLevel::kVanilla,
                                         OptLevel::kVec2, OptLevel::kIVec2,
                                         OptLevel::kVec1),
                       // 24 exercises tail padding (64 % 24 != 0)
                       ::testing::Values(8, 16, 24, 64)),
    // `param_info`, not `info`: the macro splices this lambda into a gtest
    // function whose parameter is already named `info` (-Wshadow).
    [](const auto& param_info) {
      return std::string(to_string(std::get<0>(param_info.param))) + "_vs" +
             std::to_string(std::get<1>(param_info.param));
    });

TEST(EquivalenceSemiImplicit, MatrixAndRhsMatchReference) {
  Fixture& f = fixture();
  for (OptLevel opt : {OptLevel::kScalar, OptLevel::kVanilla,
                       OptLevel::kVec1}) {
    MiniAppConfig cfg;
    cfg.opt = opt;
    cfg.vector_size = 16;
    cfg.scheme = Scheme::kSemiImplicit;
    MiniApp app(f.mesh, f.state, cfg);
    const auto machine =
        opt == OptLevel::kScalar ? riscv_vec_scalar() : riscv_vec();
    vecfd::sim::Vpu vpu(machine);
    const MiniAppResult r = app.run(vpu);
    ASSERT_TRUE(r.has_matrix);

    const auto ref = assemble_global(f.mesh, f.state, f.shape,
                                     Scheme::kSemiImplicit);
    expect_rhs_matches(r.rhs, ref.rhs, "semi rhs");
    ASSERT_EQ(r.matrix.nnz(), ref.matrix.nnz());
    const auto gv = r.matrix.vals();
    const auto rv = ref.matrix.vals();
    double max_rel = 0.0;
    for (std::size_t i = 0; i < gv.size(); ++i) {
      const double scale = std::max(1.0, std::fabs(rv[i]));
      max_rel = std::max(max_rel, std::fabs(gv[i] - rv[i]) / scale);
    }
    EXPECT_LT(max_rel, 1e-12) << to_string(opt);
  }
}

TEST(EquivalenceAcrossMachines, SameValuesOnEveryPlatform) {
  // The numbers must not depend on the machine model, only the cycles do.
  Fixture& f = fixture();
  MiniAppConfig cfg;
  cfg.opt = OptLevel::kVec1;
  cfg.vector_size = 16;
  MiniApp app(f.mesh, f.state, cfg);

  vecfd::sim::Vpu v1(riscv_vec());
  vecfd::sim::Vpu v2(vecfd::platforms::sx_aurora());
  vecfd::sim::Vpu v3(vecfd::platforms::mn4_avx512());
  const auto r1 = app.run(v1);
  const auto r2 = app.run(v2);
  const auto r3 = app.run(v3);
  expect_rhs_matches(r2.rhs, r1.rhs, "aurora vs riscv");
  expect_rhs_matches(r3.rhs, r1.rhs, "mn4 vs riscv");
}

TEST(EquivalenceDeterminism, RepeatedRunsBitIdenticalValues) {
  Fixture& f = fixture();
  MiniAppConfig cfg;
  cfg.opt = OptLevel::kVanilla;
  cfg.vector_size = 24;
  MiniApp app(f.mesh, f.state, cfg);
  vecfd::sim::Vpu vpu(riscv_vec());
  const auto r1 = app.run(vpu);
  const auto r2 = app.run(vpu);
  ASSERT_EQ(r1.rhs.size(), r2.rhs.size());
  for (std::size_t i = 0; i < r1.rhs.size(); ++i) {
    EXPECT_EQ(r1.rhs[i], r2.rhs[i]);
  }
  // Cycles are only near-deterministic: the global RHS buffer is a fresh
  // allocation each run, so its cache-set mapping (and thus conflict
  // misses) shifts slightly — as on real hardware.
  EXPECT_NEAR(r1.cycles, r2.cycles, 0.005 * r1.cycles);
}

TEST(MiniAppValidation, RejectsBadVectorSize) {
  Fixture& f = fixture();
  MiniAppConfig cfg;
  cfg.vector_size = 0;
  EXPECT_THROW(MiniApp(f.mesh, f.state, cfg), std::invalid_argument);
}

}  // namespace
