// Edge-case and failure-injection tests for the mini-app: degenerate
// machine widths, capacity-less caches, single-element meshes, and odd
// chunk factors — correctness must survive them all.
#include <gtest/gtest.h>

#include <cmath>

#include "miniapp/driver.h"
#include "platforms/platforms.h"
#include "support/reference_assembly.h"

namespace {

using namespace vecfd;

void expect_matches_reference(const fem::Mesh& mesh, const fem::State& state,
                              const miniapp::MiniAppConfig& cfg,
                              const sim::MachineConfig& machine,
                              const char* label) {
  miniapp::MiniApp app(mesh, state, cfg);
  sim::Vpu vpu(machine);
  const auto r = app.run(vpu);
  const fem::ShapeTable shape;
  const auto ref = fem::assemble_global(mesh, state, shape, cfg.scheme);
  ASSERT_EQ(r.rhs.size(), ref.rhs.size()) << label;
  for (std::size_t i = 0; i < r.rhs.size(); ++i) {
    const double scale = std::max(1.0, std::fabs(ref.rhs[i]));
    EXPECT_NEAR(r.rhs[i], ref.rhs[i], 1e-12 * scale) << label << " i=" << i;
  }
}

TEST(MiniAppEdge, VlmaxOneStillCorrect) {
  const fem::Mesh mesh({.nx = 2, .ny = 2, .nz = 2});
  const fem::State state(mesh);
  sim::MachineConfig m = platforms::riscv_vec();
  m.vlmax = 1;
  m.lanes = 1;
  for (auto opt : {miniapp::OptLevel::kVanilla, miniapp::OptLevel::kVec2,
                   miniapp::OptLevel::kVec1}) {
    miniapp::MiniAppConfig cfg;
    cfg.vector_size = 8;
    cfg.opt = opt;
    expect_matches_reference(mesh, state, cfg, m,
                             std::string(to_string(opt)).c_str());
  }
}

TEST(MiniAppEdge, VlmaxThreeCannotHoldTheDofCopy) {
  // the VEC2 guard: a machine narrower than kDofs must fall back to the
  // scalar gather and still produce exact results
  const fem::Mesh mesh({.nx = 2, .ny = 2, .nz = 2});
  const fem::State state(mesh);
  sim::MachineConfig m = platforms::riscv_vec();
  m.vlmax = 3;
  m.lanes = 1;
  miniapp::MiniAppConfig cfg;
  cfg.vector_size = 8;
  cfg.opt = miniapp::OptLevel::kVec2;
  expect_matches_reference(mesh, state, cfg, m, "vec2-vlmax3");
}

TEST(MiniAppEdge, CapacitylessCachesOnlyChangeCycles) {
  const fem::Mesh mesh({.nx = 2, .ny = 2, .nz = 2});
  const fem::State state(mesh);
  sim::MachineConfig m = platforms::riscv_vec();
  m.memory.l1.size_bytes = 0;
  m.memory.l1.associativity = 0;
  m.memory.l2.size_bytes = 0;
  m.memory.l2.associativity = 0;
  miniapp::MiniAppConfig cfg;
  cfg.vector_size = 8;
  cfg.opt = miniapp::OptLevel::kVec1;
  expect_matches_reference(mesh, state, cfg, m, "no-caches");

  // and the all-miss machine is strictly slower than the cached one
  miniapp::MiniApp app(mesh, state, cfg);
  sim::Vpu flat(m);
  sim::Vpu cached(platforms::riscv_vec());
  EXPECT_GT(app.run(flat).cycles, app.run(cached).cycles);
}

TEST(MiniAppEdge, SingleElementMesh) {
  const fem::Mesh mesh({.nx = 1, .ny = 1, .nz = 1});
  const fem::State state(mesh);
  miniapp::MiniAppConfig cfg;
  cfg.vector_size = 16;  // chunk is nearly all padding
  cfg.opt = miniapp::OptLevel::kVec1;
  expect_matches_reference(mesh, state, cfg, platforms::riscv_vec(),
                           "single-element");
}

TEST(MiniAppEdge, VectorSizeLargerThanMesh) {
  const fem::Mesh mesh({.nx = 3, .ny = 3, .nz = 1});  // 9 elements
  const fem::State state(mesh);
  miniapp::MiniAppConfig cfg;
  cfg.vector_size = 512;
  cfg.opt = miniapp::OptLevel::kVanilla;
  expect_matches_reference(mesh, state, cfg, platforms::riscv_vec(),
                           "vs>mesh");
}

TEST(MiniAppEdge, PrimeVectorSize) {
  // 7 does not divide 24 elements: three chunks, the last one padded
  const fem::Mesh mesh({.nx = 2, .ny = 3, .nz = 4});
  const fem::State state(mesh);
  miniapp::MiniAppConfig cfg;
  cfg.vector_size = 7;
  cfg.opt = miniapp::OptLevel::kVec1;
  expect_matches_reference(mesh, state, cfg, platforms::riscv_vec(),
                           "vs=7");
}

TEST(MiniAppEdge, SemiImplicitOnForeignMachines) {
  const fem::Mesh mesh({.nx = 2, .ny = 2, .nz = 2});
  const fem::State state(mesh);
  const fem::ShapeTable shape;
  const auto ref =
      fem::assemble_global(mesh, state, shape, fem::Scheme::kSemiImplicit);
  for (const auto& machine :
       {platforms::sx_aurora(), platforms::mn4_avx512()}) {
    miniapp::MiniAppConfig cfg;
    cfg.vector_size = 8;
    cfg.scheme = fem::Scheme::kSemiImplicit;
    cfg.opt = miniapp::OptLevel::kVec1;
    miniapp::MiniApp app(mesh, state, cfg);
    sim::Vpu vpu(machine);
    const auto r = app.run(vpu);
    ASSERT_TRUE(r.has_matrix);
    const auto gv = r.matrix.vals();
    const auto rv = ref.matrix.vals();
    ASSERT_EQ(gv.size(), rv.size());
    for (std::size_t i = 0; i < gv.size(); ++i) {
      EXPECT_NEAR(gv[i], rv[i], 1e-12 * std::max(1.0, std::fabs(rv[i])))
          << machine.name;
    }
  }
}

TEST(MiniAppEdge, ExtremePhysicsParameters) {
  const fem::Mesh mesh({.nx = 2, .ny = 2, .nz = 2});
  for (fem::Physics phys :
       {fem::Physics{.density = 1e3, .viscosity = 1e-6, .dt = 1e-4},
        fem::Physics{.density = 1e-3, .viscosity = 10.0, .dt = 10.0}}) {
    const fem::State state(mesh, phys);
    miniapp::MiniAppConfig cfg;
    cfg.vector_size = 8;
    cfg.opt = miniapp::OptLevel::kVec1;
    expect_matches_reference(mesh, state, cfg, platforms::riscv_vec(),
                             "extreme-physics");
  }
}


TEST(MiniAppEdge, ShuffledNumberingStillMatchesReference) {
  // unstructured-style node numbering: values identical, only locality
  // (and thus cycles) differ
  const fem::Mesh mesh(
      {.nx = 3, .ny = 3, .nz = 3, .shuffle_nodes = true});
  const fem::State state(mesh);
  miniapp::MiniAppConfig cfg;
  cfg.vector_size = 16;
  cfg.opt = miniapp::OptLevel::kVec1;
  expect_matches_reference(mesh, state, cfg, platforms::riscv_vec(),
                           "shuffled");
}

TEST(MiniAppEdge, ShuffledNumberingCostsMoreGatherLocality) {
  // the Table 6 mechanism, isolated: worse node locality -> more L1
  // misses in the gather phases -> more cycles
  const fem::MeshConfig base{.nx = 8, .ny = 8, .nz = 8};
  fem::MeshConfig shuf = base;
  shuf.shuffle_nodes = true;
  const fem::Mesh m_ord(base);
  const fem::Mesh m_shuf(shuf);
  const fem::State s_ord(m_ord);
  const fem::State s_shuf(m_shuf);
  miniapp::MiniAppConfig cfg;
  cfg.vector_size = 64;
  cfg.opt = miniapp::OptLevel::kVec1;

  auto phase2_misses = [&](const fem::Mesh& m, const fem::State& s) {
    miniapp::MiniApp app(m, s, cfg);
    sim::Vpu vpu(platforms::riscv_vec());
    const auto r = app.run(vpu);
    return r.phase[2].l1_misses;
  };
  EXPECT_GT(phase2_misses(m_shuf, s_shuf), phase2_misses(m_ord, s_ord));
}
}  // namespace
