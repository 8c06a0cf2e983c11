// Tests for the SoA chunk workspace: layout contracts (ivect fastest,
// plane strides), lifecycle, and the VEC2-critical dof-major adjacency.
#include <gtest/gtest.h>

#include "fem/element.h"
#include "miniapp/chunk.h"

namespace {

using vecfd::fem::kDim;
using vecfd::fem::kDofs;
using vecfd::fem::kGauss;
using vecfd::fem::kNodes;
using vecfd::miniapp::ElementChunk;

TEST(Chunk, PlaneStridesAreIvectFastest) {
  ElementChunk ch(32, false);
  // consecutive ivect entries are adjacent (unit-stride vector loads)
  EXPECT_EQ(ch.elcod(1, 3) + 1, ch.elcod(1, 3) + 1);
  EXPECT_EQ(ch.elcod(0, 1) - ch.elcod(0, 0), 32);
  EXPECT_EQ(ch.elcod(1, 0) - ch.elcod(0, 0), 32 * kNodes);
  EXPECT_EQ(ch.gpcar(0, 0, 1) - ch.gpcar(0, 0, 0), 32);
  EXPECT_EQ(ch.gpcar(0, 1, 0) - ch.gpcar(0, 0, 0), 32 * kNodes);
  EXPECT_EQ(ch.gpcar(1, 0, 0) - ch.gpcar(0, 0, 0), 32 * kNodes * kDim);
}

TEST(Chunk, DofMajorUnknownLayoutForVec2) {
  // VEC2's vl=4 strided store must land on the four dof planes of a node:
  // plane stride = kNodes * vs between consecutive dofs of the same node.
  ElementChunk ch(16, false);
  const std::ptrdiff_t plane = ch.elunk(1, 5) - ch.elunk(0, 5);
  EXPECT_EQ(plane, 16 * kNodes);
  // and elpre is exactly the fourth dof plane
  EXPECT_EQ(ch.elpre(2), ch.elunk(kDim, 2));
  // elvel aliases the velocity dof planes
  EXPECT_EQ(ch.elvel(2, 7), ch.elunk(2, 7));
}

TEST(Chunk, ResetRetargetsWithoutReallocation) {
  ElementChunk ch(64, false);
  const double* base = ch.elcod(0, 0);
  ch.reset(128, 64);
  EXPECT_EQ(ch.first(), 128);
  EXPECT_EQ(ch.count(), 64);
  EXPECT_EQ(ch.elcod(0, 0), base);  // buffers reused
  ch.reset(192, 10);                // tail chunk
  EXPECT_EQ(ch.count(), 10);
}

TEST(Chunk, ResetValidation) {
  ElementChunk ch(16, false);
  EXPECT_THROW(ch.reset(0, 0), std::invalid_argument);
  EXPECT_THROW(ch.reset(0, 17), std::invalid_argument);
  EXPECT_NO_THROW(ch.reset(0, 16));
}

TEST(Chunk, ConstructionValidation) {
  EXPECT_THROW(ElementChunk(0, false), std::invalid_argument);
  EXPECT_THROW(ElementChunk(-5, false), std::invalid_argument);
}

TEST(Chunk, MatrixArraysOnlyWhenRequested) {
  ElementChunk without(8, false);
  ElementChunk with(8, true);
  EXPECT_FALSE(without.with_matrix());
  EXPECT_TRUE(with.with_matrix());
  // the semi-implicit extras span every (a, b) plane of the chunk
  with.mass(kNodes - 1, kNodes - 1)[7] = 1.0;
  with.block(kNodes - 1, kNodes - 1)[7] = 2.0;
  EXPECT_EQ(with.mass(kNodes - 1, kNodes - 1)[7], 1.0);
  EXPECT_EQ(with.block(kNodes - 1, kNodes - 1)[7], 2.0);
}

TEST(Chunk, DistinctPlanesDoNotAlias) {
  ElementChunk ch(8, true);
  ch.elcod(0, 0)[0] = 1.0;
  ch.elcod(2, 7)[7] = 2.0;
  ch.gpcar(7, 2, 7)[7] = 3.0;
  ch.conv(7, 7)[7] = 4.0;
  ch.visc(0, 0)[0] = 5.0;
  ch.mass(3, 3)[3] = 6.0;
  ch.block(3, 3)[3] = 7.0;
  ch.elrhs(2, 7)[7] = 8.0;
  EXPECT_EQ(ch.elcod(0, 0)[0], 1.0);
  EXPECT_EQ(ch.elcod(2, 7)[7], 2.0);
  EXPECT_EQ(ch.gpcar(7, 2, 7)[7], 3.0);
  EXPECT_EQ(ch.conv(7, 7)[7], 4.0);
  EXPECT_EQ(ch.visc(0, 0)[0], 5.0);
  EXPECT_EQ(ch.mass(3, 3)[3], 6.0);
  EXPECT_EQ(ch.block(3, 3)[3], 7.0);
  EXPECT_EQ(ch.elrhs(2, 7)[7], 8.0);
}

TEST(Chunk, IntArraysPresent) {
  ElementChunk ch(8, false);
  ch.lnods(3)[2] = 42;
  ch.valid()[2] = 1;
  ch.etype()[2] = 0;
  EXPECT_EQ(ch.lnods(3)[2], 42);
  EXPECT_EQ(ch.valid()[2], 1);
  EXPECT_EQ(ch.etype()[2], 0);
}

}  // namespace
