// Tests for the structured hex mesh: connectivity invariants, geometry,
// boundary detection, chunking.
#include <gtest/gtest.h>

#include <set>

#include "fem/mesh.h"
#include "fem/state.h"
#include "solver/csr.h"
#include "support/bandwidth.h"

namespace {

using vecfd::fem::kDim;
using vecfd::fem::kDofs;
using vecfd::fem::kNodes;
using vecfd::fem::Mesh;
using vecfd::fem::MeshConfig;

TEST(Mesh, NodeAndElementCounts) {
  const Mesh m({.nx = 4, .ny = 3, .nz = 2});
  EXPECT_EQ(m.num_elements(), 24);
  EXPECT_EQ(m.num_nodes(), 5 * 4 * 3);
}

TEST(Mesh, ConnectivityInRangeAndDistinct) {
  const Mesh m({.nx = 3, .ny = 3, .nz = 3});
  for (int e = 0; e < m.num_elements(); ++e) {
    const auto ln = m.element(e);
    std::set<int> seen;
    for (int a = 0; a < kNodes; ++a) {
      EXPECT_GE(ln[a], 0);
      EXPECT_LT(ln[a], m.num_nodes());
      seen.insert(ln[a]);
    }
    EXPECT_EQ(seen.size(), 8u) << "degenerate element " << e;
  }
}

TEST(Mesh, EveryNodeBelongsToSomeElement) {
  const Mesh m({.nx = 3, .ny = 2, .nz = 2});
  std::set<int> touched;
  for (int e = 0; e < m.num_elements(); ++e) {
    for (int a = 0; a < kNodes; ++a) touched.insert(m.element(e)[a]);
  }
  EXPECT_EQ(static_cast<int>(touched.size()), m.num_nodes());
}

TEST(Mesh, UndistortedCoordinatesAreCartesian) {
  const Mesh m({.nx = 2, .ny = 2, .nz = 2, .lx = 2.0, .ly = 2.0, .lz = 2.0,
                .distortion = 0.0});
  const auto x0 = m.node(0);
  EXPECT_DOUBLE_EQ(x0[0], 0.0);
  EXPECT_DOUBLE_EQ(x0[1], 0.0);
  EXPECT_DOUBLE_EQ(x0[2], 0.0);
  const auto xlast = m.node(m.num_nodes() - 1);
  EXPECT_DOUBLE_EQ(xlast[0], 2.0);
  EXPECT_DOUBLE_EQ(xlast[1], 2.0);
  EXPECT_DOUBLE_EQ(xlast[2], 2.0);
}

TEST(Mesh, BoundaryNodesStayOnBox) {
  const Mesh m({.nx = 4, .ny = 4, .nz = 4, .distortion = 0.1});
  int boundary_count = 0;
  for (int n = 0; n < m.num_nodes(); ++n) {
    if (!m.is_boundary_node(n)) continue;
    ++boundary_count;
    const auto x = m.node(n);
    const bool on_face = x[0] == 0.0 || x[0] == 1.0 || x[1] == 0.0 ||
                         x[1] == 1.0 || x[2] == 0.0 || x[2] == 1.0;
    EXPECT_TRUE(on_face);
  }
  // 5^3 nodes, 3^3 interior
  EXPECT_EQ(boundary_count, 125 - 27);
}

TEST(Mesh, NodeAdjacencyIsSymmetric) {
  const Mesh m({.nx = 3, .ny = 3, .nz = 2});
  const auto adj = m.node_adjacency();
  ASSERT_EQ(static_cast<int>(adj.size()), m.num_nodes());
  for (int i = 0; i < m.num_nodes(); ++i) {
    for (int j : adj[i]) {
      const auto& back = adj[j];
      EXPECT_NE(std::find(back.begin(), back.end(), i), back.end())
          << i << "<->" << j;
    }
  }
}

TEST(Mesh, InteriorNodeHas27Neighbours) {
  const Mesh m({.nx = 4, .ny = 4, .nz = 4});
  const auto adj = m.node_adjacency();
  // center node of the 5x5x5 lattice
  const int c = 2 + 5 * (2 + 5 * 2);
  std::set<int> uniq(adj[c].begin(), adj[c].end());
  EXPECT_EQ(uniq.size(), 27u);
}

TEST(Mesh, ChunkingCoversAllElementsOnce) {
  const Mesh m({.nx = 5, .ny = 3, .nz = 2});  // 30 elements
  const int vs = 8;
  EXPECT_EQ(m.num_chunks(vs), 4);
  int covered = 0;
  for (int c = 0; c < m.num_chunks(vs); ++c) {
    const auto r = m.chunk(vs, c);
    EXPECT_EQ(r.first, c * vs);
    covered += r.count;
    if (c < 3) {
      EXPECT_EQ(r.count, 8);
    }
  }
  EXPECT_EQ(covered, 30);
  EXPECT_EQ(m.chunk(vs, 3).count, 6);  // tail
}

TEST(Mesh, ChunkErrors) {
  const Mesh m({.nx = 2, .ny = 2, .nz = 2});
  EXPECT_THROW(m.num_chunks(0), std::invalid_argument);
  EXPECT_THROW(m.chunk(4, -1), std::out_of_range);
  EXPECT_THROW(m.chunk(4, 2), std::out_of_range);
}

TEST(Mesh, ConfigValidation) {
  EXPECT_THROW(Mesh({.nx = 0}), std::invalid_argument);
  EXPECT_THROW(Mesh({.nx = 2, .ny = 2, .nz = 2, .lx = -1.0}),
               std::invalid_argument);
  EXPECT_THROW(Mesh({.nx = 2, .ny = 2, .nz = 2, .distortion = 0.5}),
               std::invalid_argument);
}

TEST(Mesh, MaterialBands) {
  const Mesh m({.nx = 2, .ny = 2, .nz = 4});
  // lower half band 0, upper half band 1
  EXPECT_EQ(m.material(0), 0);
  EXPECT_EQ(m.material(m.num_elements() - 1), 1);
}

// ---- state ------------------------------------------------------------

TEST(State, DeterministicInitialization) {
  const Mesh m({.nx = 3, .ny = 3, .nz = 3});
  const vecfd::fem::State s1(m);
  const vecfd::fem::State s2(m);
  ASSERT_EQ(s1.unknowns().size(), s2.unknowns().size());
  for (std::size_t i = 0; i < s1.unknowns().size(); ++i) {
    EXPECT_DOUBLE_EQ(s1.unknowns()[i], s2.unknowns()[i]);
  }
}

TEST(State, OldLevelIsDecayedVelocity) {
  const Mesh m({.nx = 2, .ny = 2, .nz = 2});
  const vecfd::fem::State s(m);
  for (int n = 0; n < s.num_nodes(); ++n) {
    for (int d = 0; d < kDim; ++d) {
      EXPECT_DOUBLE_EQ(s.unknowns_old()[n * kDofs + d],
                       0.95 * s.velocity(n, d));
    }
  }
}

TEST(State, PushTimeLevelRotates) {
  const Mesh m({.nx = 2, .ny = 2, .nz = 2});
  vecfd::fem::State s(m);
  const double u_before = s.velocity(3, 1);
  const double p_before = s.pressure(3);
  std::vector<double> newv(static_cast<std::size_t>(s.num_nodes()) * kDim,
                           7.5);
  s.push_time_level(newv);
  EXPECT_DOUBLE_EQ(s.velocity(3, 1), 7.5);
  EXPECT_DOUBLE_EQ(s.unknowns_old()[3 * kDofs + 1], u_before);
  EXPECT_DOUBLE_EQ(s.pressure(3), p_before);  // pressure carried over
  EXPECT_THROW(s.push_time_level(std::vector<double>{1.0}),
               std::invalid_argument);
}

TEST(State, RejectsNonPhysicalParameters) {
  const Mesh m({.nx = 2, .ny = 2, .nz = 2});
  vecfd::fem::Physics bad;
  bad.dt = 0.0;
  EXPECT_THROW(vecfd::fem::State(m, bad), std::invalid_argument);
  bad = {};
  bad.density = -1.0;
  EXPECT_THROW(vecfd::fem::State(m, bad), std::invalid_argument);
}


// ---- shuffled node numbering -------------------------------------------

TEST(MeshShuffle, PreservesConnectivityInvariants) {
  const Mesh m({.nx = 3, .ny = 3, .nz = 3, .shuffle_nodes = true});
  std::set<int> touched;
  for (int e = 0; e < m.num_elements(); ++e) {
    const auto ln = m.element(e);
    std::set<int> seen;
    for (int a = 0; a < kNodes; ++a) {
      ASSERT_GE(ln[a], 0);
      ASSERT_LT(ln[a], m.num_nodes());
      seen.insert(ln[a]);
      touched.insert(ln[a]);
    }
    EXPECT_EQ(seen.size(), 8u);
  }
  EXPECT_EQ(static_cast<int>(touched.size()), m.num_nodes());
}

TEST(MeshShuffle, SameGeometryDifferentNumbering) {
  const Mesh ordered({.nx = 3, .ny = 3, .nz = 3, .distortion = 0.0});
  const Mesh shuffled(
      {.nx = 3, .ny = 3, .nz = 3, .distortion = 0.0, .shuffle_nodes = true});
  // element 5's node coordinates must coincide as unordered sets
  auto coords_of = [](const Mesh& m, int e) {
    std::multiset<double> s;
    for (int a = 0; a < kNodes; ++a) {
      const auto x = m.node(m.element(e)[a]);
      s.insert(x[0] + 10.0 * x[1] + 100.0 * x[2]);
    }
    return s;
  };
  for (int e = 0; e < ordered.num_elements(); e += 7) {
    EXPECT_EQ(coords_of(ordered, e), coords_of(shuffled, e));
  }
  // and the numbering really is different
  bool any_diff = false;
  for (int e = 0; e < ordered.num_elements(); ++e) {
    for (int a = 0; a < kNodes; ++a) {
      if (ordered.element(e)[a] != shuffled.element(e)[a]) any_diff = true;
    }
  }
  EXPECT_TRUE(any_diff);
}

TEST(MeshShuffle, BoundaryFlagsFollowTheNodes) {
  const Mesh m({.nx = 4, .ny = 4, .nz = 4, .shuffle_nodes = true});
  int boundary_count = 0;
  for (int n = 0; n < m.num_nodes(); ++n) {
    if (m.is_boundary_node(n)) ++boundary_count;
  }
  EXPECT_EQ(boundary_count, 125 - 27);
}

TEST(MeshShuffle, DeterministicAcrossInstances) {
  const Mesh a({.nx = 3, .ny = 2, .nz = 2, .shuffle_nodes = true});
  const Mesh b({.nx = 3, .ny = 2, .nz = 2, .shuffle_nodes = true});
  for (int e = 0; e < a.num_elements(); ++e) {
    for (int aa = 0; aa < kNodes; ++aa) {
      EXPECT_EQ(a.element(e)[aa], b.element(e)[aa]);
    }
  }
}

TEST(RcmOrdering, IsAValidDeterministicPermutation) {
  const Mesh m({.nx = 4, .ny = 3, .nz = 3, .shuffle_nodes = true});
  const auto adjacency = m.node_adjacency();
  const auto perm = vecfd::fem::rcm_ordering(adjacency);
  ASSERT_EQ(static_cast<int>(perm.size()), m.num_nodes());
  std::set<int> seen(perm.begin(), perm.end());
  EXPECT_EQ(static_cast<int>(seen.size()), m.num_nodes());
  EXPECT_EQ(*seen.begin(), 0);
  EXPECT_EQ(*seen.rbegin(), m.num_nodes() - 1);
  EXPECT_EQ(perm, vecfd::fem::rcm_ordering(adjacency));  // deterministic
}

TEST(RcmOrdering, ShrinksOperatorBandwidthOfAShuffledMesh) {
  const Mesh m({.nx = 6, .ny = 6, .nz = 6, .shuffle_nodes = true});
  const auto adjacency = m.node_adjacency();
  const vecfd::solver::CsrMatrix a(adjacency);
  const auto perm = vecfd::fem::rcm_ordering(adjacency);
  const vecfd::solver::CsrMatrix ap =
      vecfd::solver::permute_symmetric(a, perm);
  // a shuffled numbering has bandwidth ~num_nodes; RCM restores the
  // plane-by-plane profile of the structured mesh (≲ 2 planes of nodes)
  EXPECT_GT(vecfd::solver::bandwidth(a), m.num_nodes() / 2);
  EXPECT_LT(vecfd::solver::bandwidth(ap), 3 * 7 * 7);
  // RCM never loses entries: same pattern size, symmetric permutation
  EXPECT_EQ(ap.nnz(), a.nnz());
}

TEST(RcmOrdering, HandlesDisconnectedComponentsAndSelfEdges) {
  // two disconnected paths (0-1-2) and (3-4), with noisy self/duplicate
  // edges the helper must ignore
  const std::vector<std::vector<int>> adjacency = {
      {1, 1, 0}, {0, 2}, {1, 2}, {4}, {3, 3}};
  const auto perm = vecfd::fem::rcm_ordering(adjacency);
  ASSERT_EQ(perm.size(), 5u);
  std::set<int> seen(perm.begin(), perm.end());
  EXPECT_EQ(seen.size(), 5u);
}
}  // namespace
