#include "particles/accumulator.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "harness.hpp"

namespace minivpic::particles {
namespace {

using testing::Pic;
using testing::cube_grid;

TEST(AccumulatorTest, LayoutIsOneCacheLine) {
  EXPECT_EQ(sizeof(CellAccum), 64u);
}

TEST(AccumulatorTest, ClearZeroes) {
  const grid::LocalGrid g(cube_grid(4, 0.5));
  AccumulatorArray acc(g);
  acc.data()[5].jx[2] = 3.0f;
  acc.clear();
  EXPECT_EQ(acc.data()[5].jx[2], 0.0f);
}

/// Total current (sum of J over the mesh times cell volume) must equal
/// sum over particles of Q*v — independent of where particles sit or how
/// many cells they cross.
double total_jx(const grid::FieldArray& f) {
  const auto& g = f.grid();
  double s = 0;
  for (int k = 1; k <= g.nz(); ++k)
    for (int j = 1; j <= g.ny(); ++j)
      for (int i = 1; i <= g.nx(); ++i) s += f.jfx(i, j, k);
  return s * g.cell_volume();
}

TEST(AccumulatorTest, InCellCurrentMatchesQv) {
  Pic pic(cube_grid(8, 0.5));
  Species sp("e", -1.0, 1.0);
  Particle p;
  p.i = pic.grid.voxel(4, 4, 4);
  p.dx = -0.3f;
  p.dy = 0.2f;
  p.ux = 0.2f;  // slow: stays in cell
  p.w = 2.0f;
  sp.add(p);
  pic.step({&sp});
  const double v = 0.2 / std::sqrt(1.0 + 0.04);
  const double expect = -1.0 * 2.0 * v;  // q w v
  EXPECT_NEAR(total_jx(pic.fields), expect, 1e-5 * std::abs(expect));
}

TEST(AccumulatorTest, CrossingCurrentMatchesQv) {
  Pic pic(cube_grid(8, 0.5));
  Species sp("e", -1.0, 1.0);
  Particle p;
  p.i = pic.grid.voxel(4, 4, 4);
  p.dx = 0.8f;
  p.dy = 0.5f;
  p.dz = -0.7f;
  p.ux = 2.5f;
  p.uy = 1.5f;
  p.uz = -1.0f;  // crosses several faces
  p.w = 1.0f;
  sp.add(p);
  pic.step({&sp});
  const double gamma = std::sqrt(1.0 + 2.5 * 2.5 + 1.5 * 1.5 + 1.0);
  const double expect = -1.0 * (2.5 / gamma);
  EXPECT_NEAR(total_jx(pic.fields), expect, 1e-4 * std::abs(expect));
}

TEST(AccumulatorTest, OppositeChargesCancel) {
  Pic pic(cube_grid(8, 0.5));
  Species e("e", -1.0, 1.0);
  Species ion("i", +1.0, 1.0);
  Particle p;
  p.i = pic.grid.voxel(4, 4, 4);
  p.ux = 0.3f;
  p.w = 1.0f;
  e.add(p);
  ion.add(p);
  pic.step({&e, &ion});
  EXPECT_NEAR(total_jx(pic.fields), 0.0, 1e-7);
}

TEST(AccumulatorTest, StationaryParticleDepositsNothing) {
  Pic pic(cube_grid(8, 0.5));
  Species sp("e", -1.0, 1.0);
  Particle p;
  p.i = pic.grid.voxel(4, 4, 4);
  p.w = 5.0f;
  sp.add(p);
  pic.step({&sp});
  const auto& f = pic.fields;
  for (int k = 1; k <= 8; ++k)
    for (int j = 1; j <= 8; ++j)
      for (int i = 1; i <= 8; ++i) {
        ASSERT_EQ(f.jfx(i, j, k), 0.0f);
        ASSERT_EQ(f.jfy(i, j, k), 0.0f);
        ASSERT_EQ(f.jfz(i, j, k), 0.0f);
      }
}

TEST(AccumulatorTest, DepositLandsOnAdjacentEdges) {
  // A particle at the center of cell (4,4,4) moving in +x deposits jx only
  // on that cell's four x-edges.
  Pic pic(cube_grid(8, 0.5));
  Species sp("e", -1.0, 1.0);
  Particle p;
  p.i = pic.grid.voxel(4, 4, 4);
  p.ux = 0.1f;
  p.w = 1.0f;
  sp.add(p);
  pic.step({&sp});
  const auto& f = pic.fields;
  int nonzero = 0;
  for (int k = 1; k <= 8; ++k)
    for (int j = 1; j <= 8; ++j)
      for (int i = 1; i <= 8; ++i)
        if (f.jfx(i, j, k) != 0.0f) {
          ++nonzero;
          EXPECT_EQ(i, 4);
          EXPECT_TRUE(j == 4 || j == 5);
          EXPECT_TRUE(k == 4 || k == 5);
        }
  EXPECT_EQ(nonzero, 4);
}

}  // namespace
}  // namespace minivpic::particles
