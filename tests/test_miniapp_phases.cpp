// Phase-by-phase white-box tests: drive the 8 kernels directly on a single
// chunk and verify each phase's outputs against independently computed
// values (gathers against the mesh/state, Gauss-point arrays against the
// shape tables, operator blocks against their defining sums).
#include <gtest/gtest.h>

#include <cmath>

#include "miniapp/chunk.h"
#include "miniapp/phases.h"
#include "platforms/platforms.h"
#include "support/reference_assembly.h"

namespace {

using namespace vecfd;
using fem::kDim;
using fem::kDofs;
using fem::kGauss;
using fem::kNodes;
using miniapp::ElementChunk;

/// Single-chunk harness: 3x3x3 mesh, one chunk of 27 elements.
struct Harness {
  Harness(miniapp::OptLevel opt = miniapp::OptLevel::kVec1,
          fem::Scheme scheme = fem::Scheme::kExplicit)
      : mesh({.nx = 3, .ny = 3, .nz = 3}),
        state(mesh),
        shape(),
        cfg{.vector_size = 27, .scheme = scheme, .opt = opt},
        plan(miniapp::build_plan(platforms::riscv_vec(), cfg)),
        vpu(platforms::riscv_vec()),
        chunk(27, scheme == fem::Scheme::kSemiImplicit),
        rhs(static_cast<std::size_t>(mesh.num_nodes()) * kDim, 0.0) {
    chunk.reset(0, 27);
    bound = 27.0;
    ctx.mesh = &mesh;
    ctx.state = &state;
    ctx.shape = &shape;
    ctx.plan = &plan;
    ctx.cfg = cfg;
    ctx.vector_dim_slot = &bound;
    ctx.global_rhs = &rhs;
    ctx.global_matrix = nullptr;
  }

  void run_through(int last_phase) {
    using Fn = void (*)(sim::Vpu&, const miniapp::Ctx&, ElementChunk&);
    const Fn fns[] = {miniapp::phase1, miniapp::phase2, miniapp::phase3,
                      miniapp::phase4, miniapp::phase5, miniapp::phase6,
                      miniapp::phase7, miniapp::phase8};
    for (int p = 1; p <= last_phase; ++p) {
      sim::ScopedPhase sp(vpu.profiler(), p);
      fns[p - 1](vpu, ctx, chunk);
    }
  }

  fem::Mesh mesh;
  fem::State state;
  fem::ShapeTable shape;
  miniapp::MiniAppConfig cfg;
  miniapp::PhasePlan plan;
  sim::Vpu vpu;
  ElementChunk chunk;
  std::vector<double> rhs;
  double bound = 0.0;
  miniapp::Ctx ctx;
};

TEST(Phases, Phase1GathersConnectivityAndFactors) {
  Harness h;
  h.run_through(1);
  for (int iv = 0; iv < 27; ++iv) {
    EXPECT_EQ(h.chunk.valid()[iv], 1);
    EXPECT_EQ(h.chunk.etype()[iv], 0);
    const auto ln = h.mesh.element(iv);
    for (int a = 0; a < kNodes; ++a) {
      EXPECT_EQ(h.chunk.lnods(a)[iv], ln[a]);
      for (int d = 0; d < kDim; ++d) {
        EXPECT_DOUBLE_EQ(h.chunk.elcod(d, a)[iv], h.mesh.node(ln[a])[d]);
      }
    }
    EXPECT_DOUBLE_EQ(
        h.chunk.dtfac()[iv],
        fem::element_dt_factor(h.state.physics(), h.mesh.material(iv)));
  }
}

TEST(Phases, Phase1PadsTailWithClampedElements) {
  Harness h;
  h.chunk.reset(0, 20);  // 7 padding lanes
  miniapp::phase1(h.vpu, h.ctx, h.chunk);
  for (int iv = 20; iv < 27; ++iv) {
    EXPECT_EQ(h.chunk.valid()[iv], 0);
    // padding clamps to the chunk's first element
    EXPECT_EQ(h.chunk.lnods(0)[iv], h.mesh.element(0)[0]);
  }
}

TEST(Phases, Phase2GathersUnknownsBothLevels) {
  for (auto opt : {miniapp::OptLevel::kVanilla, miniapp::OptLevel::kVec2,
                   miniapp::OptLevel::kIVec2}) {
    Harness h(opt);
    h.run_through(2);
    for (int iv = 0; iv < 27; ++iv) {
      const auto ln = h.mesh.element(iv);
      for (int a = 0; a < kNodes; ++a) {
        for (int d = 0; d < kDim; ++d) {
          EXPECT_DOUBLE_EQ(h.chunk.elvel(d, a)[iv],
                           h.state.velocity(ln[a], d))
              << to_string(opt);
          EXPECT_DOUBLE_EQ(h.chunk.elvel_old(d, a)[iv],
                           h.state.unknowns_old()[ln[a] * kDofs + d]);
        }
        EXPECT_DOUBLE_EQ(h.chunk.elpre(a)[iv], h.state.pressure(ln[a]));
      }
    }
  }
}

TEST(Phases, Phase3VolumesPositiveAndSumToElementVolume) {
  Harness h;
  h.run_through(3);
  for (int iv = 0; iv < 27; ++iv) {
    double vol = 0.0;
    for (int g = 0; g < kGauss; ++g) {
      EXPECT_GT(h.chunk.gpvol(g)[iv], 0.0);
      vol += h.chunk.gpvol(g)[iv];
    }
    // distorted cells: volume near the uniform (1/3)³ but not exactly
    EXPECT_NEAR(vol, 1.0 / 27.0, 0.3 / 27.0);
  }
  // total volume is exact (the distortion is volume-preserving to 1e-10)
  double total = 0.0;
  for (int iv = 0; iv < 27; ++iv) {
    for (int g = 0; g < kGauss; ++g) total += h.chunk.gpvol(g)[iv];
  }
  EXPECT_NEAR(total, 1.0, 1e-10);
}

TEST(Phases, Phase3CartesianDerivativesSumToZero) {
  // Σ_a ∂N_a/∂x_d = 0 at every Gauss point of every element
  Harness h;
  h.run_through(3);
  for (int iv = 0; iv < 27; iv += 5) {
    for (int g = 0; g < kGauss; ++g) {
      for (int d = 0; d < kDim; ++d) {
        double s = 0.0;
        for (int a = 0; a < kNodes; ++a) s += h.chunk.gpcar(g, d, a)[iv];
        EXPECT_NEAR(s, 0.0, 1e-12);
      }
    }
  }
}

TEST(Phases, Phase3GradientOfLinearFieldIsExact) {
  // gpcar must differentiate x_d exactly: Σ_a gpcar(d,a)·x_e(a) = δ_de
  Harness h;
  h.run_through(3);
  for (int iv = 0; iv < 27; iv += 7) {
    for (int g = 0; g < kGauss; ++g) {
      for (int d = 0; d < kDim; ++d) {
        for (int e = 0; e < kDim; ++e) {
          double s = 0.0;
          for (int a = 0; a < kNodes; ++a) {
            s += h.chunk.gpcar(g, d, a)[iv] * h.chunk.elcod(e, a)[iv];
          }
          EXPECT_NEAR(s, d == e ? 1.0 : 0.0, 1e-11);
        }
      }
    }
  }
}

TEST(Phases, Phase4InterpolatesVelocityAndPressure) {
  Harness h;
  h.run_through(4);
  const int iv = 13;  // middle element
  for (int g = 0; g < kGauss; ++g) {
    for (int d = 0; d < kDim; ++d) {
      double expect = 0.0;
      for (int a = 0; a < kNodes; ++a) {
        expect = h.shape.n(g, a) * h.chunk.elvel(d, a)[iv] + expect;
      }
      EXPECT_DOUBLE_EQ(h.chunk.gpvel(0, g, d)[iv], expect);
      EXPECT_DOUBLE_EQ(h.chunk.gpadv(g, d)[iv], expect);
    }
    double pexpect = 0.0;
    for (int a = 0; a < kNodes; ++a) {
      pexpect = h.shape.n(g, a) * h.chunk.elpre(a)[iv] + pexpect;
    }
    EXPECT_DOUBLE_EQ(h.chunk.gppre(g)[iv], pexpect);
  }
}

TEST(Phases, Phase4GradientMatchesManualSum) {
  Harness h;
  h.run_through(4);
  const int iv = 8;
  for (int g = 0; g < kGauss; g += 3) {
    for (int j = 0; j < kDim; ++j) {
      for (int d = 0; d < kDim; ++d) {
        double expect = 0.0;
        for (int a = 0; a < kNodes; ++a) {
          expect = h.chunk.gpcar(g, j, a)[iv] * h.chunk.elvel(d, a)[iv] +
                   expect;
        }
        EXPECT_DOUBLE_EQ(h.chunk.gpgve(g, j, d)[iv], expect);
      }
    }
  }
}

TEST(Phases, Phase5TauPositiveAndBounded) {
  Harness h;
  h.run_through(5);
  const double dtmax = 1.02 * h.state.physics().density /
                       h.state.physics().dt;
  for (int iv = 0; iv < 27; ++iv) {
    for (int g = 0; g < kGauss; ++g) {
      const double tau = h.chunk.tau(g)[iv];
      EXPECT_GT(tau, 0.0);
      // τ = 1/(… + dtfac) ≤ 1/dtfac_min ≤ dt/ρ
      EXPECT_LT(tau, 1.0 / (h.state.physics().density /
                            h.state.physics().dt));
      (void)dtmax;
    }
  }
}

TEST(Phases, Phase6ConvectionRowSumsVanish) {
  // Σ_b C[a][b] = Σ_g W(g,a)·(adv·Σ_b ∇N_b) = 0 because Σ_b gpcar_b = 0.
  Harness h;
  h.run_through(6);
  for (int iv = 0; iv < 27; iv += 4) {
    for (int a = 0; a < kNodes; ++a) {
      double s = 0.0;
      double mag = 0.0;
      for (int b = 0; b < kNodes; ++b) {
        s += h.chunk.conv(a, b)[iv];
        mag += std::fabs(h.chunk.conv(a, b)[iv]);
      }
      EXPECT_LE(std::fabs(s), 1e-12 * std::max(1.0, mag));
    }
  }
}

TEST(Phases, Phase7ViscousBlockSymmetricWithZeroRowSums) {
  Harness h;
  h.run_through(7);
  for (int iv = 0; iv < 27; iv += 6) {
    for (int a = 0; a < kNodes; ++a) {
      double s = 0.0;
      for (int b = 0; b < kNodes; ++b) {
        EXPECT_DOUBLE_EQ(h.chunk.visc(a, b)[iv], h.chunk.visc(b, a)[iv]);
        s += h.chunk.visc(a, b)[iv];
      }
      EXPECT_NEAR(s, 0.0, 1e-12);
      EXPECT_GT(h.chunk.visc(a, a)[iv], 0.0);  // diagonal dominance source
    }
  }
}

TEST(Phases, ElementRhsMatchesReferencePerElement) {
  Harness h;
  h.run_through(7);
  fem::ElementSystem es;
  for (int iv = 0; iv < 27; ++iv) {
    fem::assemble_element(h.mesh, h.state, h.shape, iv,
                          fem::Scheme::kExplicit, es);
    for (int d = 0; d < kDim; ++d) {
      for (int a = 0; a < kNodes; ++a) {
        const double got = h.chunk.elrhs(d, a)[iv];
        const double want = es.rhs_at(d, a);
        EXPECT_NEAR(got, want, 1e-12 * std::max(1.0, std::fabs(want)))
            << "iv=" << iv << " d=" << d << " a=" << a;
      }
    }
  }
}

TEST(Phases, Phase8SkipsInvalidLanes) {
  Harness h;
  h.chunk.reset(0, 20);
  h.run_through(8);
  // rhs contributions only from elements 0..19
  std::vector<double> expect(h.rhs.size(), 0.0);
  fem::ElementSystem es;
  for (int e = 0; e < 20; ++e) {
    fem::assemble_element(h.mesh, h.state, h.shape, e,
                          fem::Scheme::kExplicit, es);
    const auto ln = h.mesh.element(e);
    for (int a = 0; a < kNodes; ++a) {
      for (int d = 0; d < kDim; ++d) {
        expect[static_cast<std::size_t>(ln[a]) * kDim + d] +=
            es.rhs[d * kNodes + a];
      }
    }
  }
  for (std::size_t i = 0; i < expect.size(); ++i) {
    EXPECT_NEAR(h.rhs[i], expect[i],
                1e-12 * std::max(1.0, std::fabs(expect[i])));
  }
}

TEST(Phases, SemiImplicitBlockMatchesReference) {
  Harness h(miniapp::OptLevel::kVanilla, fem::Scheme::kSemiImplicit);
  h.run_through(7);
  fem::ElementSystem es;
  for (int iv = 0; iv < 27; iv += 9) {
    fem::assemble_element(h.mesh, h.state, h.shape, iv,
                          fem::Scheme::kSemiImplicit, es);
    for (int a = 0; a < kNodes; ++a) {
      for (int b = 0; b < kNodes; ++b) {
        const double want = es.block_at(a, b);
        EXPECT_NEAR(h.chunk.block(a, b)[iv], want,
                    1e-12 * std::max(1.0, std::fabs(want)));
      }
    }
  }
}

TEST(Phases, CountersAttributeWorkToTheRightPhase) {
  Harness h;
  h.run_through(8);
  const auto& prof = h.vpu.profiler();
  // every phase did something
  for (int p = 1; p <= 8; ++p) {
    EXPECT_GT(prof.phase(p).total_instrs(), 0u) << "phase " << p;
  }
  // phase 6 has the most FLOPs (the paper's "almost all the floating-point
  // operations reside" claim, §4)
  for (int p = 1; p <= 8; ++p) {
    if (p == 6) continue;
    EXPECT_GE(prof.phase(6).flops, prof.phase(p).flops) << "phase " << p;
  }
  // phases 1, 2, 8 never issue vector instructions by default... except
  // phase 1/2 under kVec1 (split+interchange) — here kVec1: phase 8 only
  EXPECT_EQ(prof.phase(8).vector_instrs(), 0u);
}

}  // namespace
