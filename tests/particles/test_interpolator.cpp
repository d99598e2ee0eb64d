#include "particles/interpolator.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "grid/halo.hpp"
#include "harness.hpp"

namespace minivpic::particles {
namespace {

using testing::cube_grid;

TEST(InterpolatorTest, LayoutIs80Bytes) { EXPECT_EQ(sizeof(Interpolator), 80u); }

TEST(InterpolatorTest, UniformFieldExactEverywhere) {
  const grid::LocalGrid g(cube_grid(4));
  grid::FieldArray f(g);
  grid::Halo halo(g, nullptr);
  for (int k = 0; k <= 5; ++k)
    for (int j = 0; j <= 5; ++j)
      for (int i = 0; i <= 5; ++i) {
        f.ex(i, j, k) = 1.0f;
        f.ey(i, j, k) = 2.0f;
        f.ez(i, j, k) = 3.0f;
        f.cbx(i, j, k) = -1.0f;
        f.cby(i, j, k) = -2.0f;
        f.cbz(i, j, k) = -3.0f;
      }
  InterpolatorArray interp(g);
  interp.load(f);
  for (float dx : {-0.9f, 0.0f, 0.7f}) {
    for (float dy : {-1.0f, 0.3f}) {
      const auto v = interp.evaluate(g.voxel(2, 2, 2), dx, dy, 0.5f);
      EXPECT_FLOAT_EQ(v.ex, 1.0f);
      EXPECT_FLOAT_EQ(v.ey, 2.0f);
      EXPECT_FLOAT_EQ(v.ez, 3.0f);
      EXPECT_FLOAT_EQ(v.cbx, -1.0f);
      EXPECT_FLOAT_EQ(v.cby, -2.0f);
      EXPECT_FLOAT_EQ(v.cbz, -3.0f);
    }
  }
}

TEST(InterpolatorTest, CornerValuesRecovered) {
  // At offset (dy,dz) = (-1,-1) the interpolated Ex must equal the raw edge
  // value ex(i,j,k); at (+1,+1) it must equal ex(i,j+1,k+1).
  const grid::LocalGrid g(cube_grid(4));
  grid::FieldArray f(g);
  f.ex(2, 2, 2) = 10.0f;
  f.ex(2, 3, 2) = 20.0f;
  f.ex(2, 2, 3) = 30.0f;
  f.ex(2, 3, 3) = 40.0f;
  InterpolatorArray interp(g);
  interp.load(f);
  const auto v = g.voxel(2, 2, 2);
  EXPECT_FLOAT_EQ(interp.evaluate(v, 0, -1, -1).ex, 10.0f);
  EXPECT_FLOAT_EQ(interp.evaluate(v, 0, +1, -1).ex, 20.0f);
  EXPECT_FLOAT_EQ(interp.evaluate(v, 0, -1, +1).ex, 30.0f);
  EXPECT_FLOAT_EQ(interp.evaluate(v, 0, +1, +1).ex, 40.0f);
  // Center is the average.
  EXPECT_FLOAT_EQ(interp.evaluate(v, 0, 0, 0).ex, 25.0f);
}

TEST(InterpolatorTest, BFaceValuesRecovered) {
  const grid::LocalGrid g(cube_grid(4));
  grid::FieldArray f(g);
  f.cbx(2, 2, 2) = 5.0f;
  f.cbx(3, 2, 2) = 9.0f;
  InterpolatorArray interp(g);
  interp.load(f);
  const auto v = g.voxel(2, 2, 2);
  EXPECT_FLOAT_EQ(interp.evaluate(v, -1, 0, 0).cbx, 5.0f);
  EXPECT_FLOAT_EQ(interp.evaluate(v, +1, 0, 0).cbx, 9.0f);
  EXPECT_FLOAT_EQ(interp.evaluate(v, 0, 0, 0).cbx, 7.0f);
}

TEST(InterpolatorTest, LinearFieldExact) {
  // Ex varying linearly in y must interpolate exactly (bilinear scheme).
  const grid::LocalGrid g(cube_grid(8, 1.0));
  grid::FieldArray f(g);
  grid::Halo halo(g, nullptr);
  for (int k = 0; k <= 9; ++k)
    for (int j = 0; j <= 9; ++j)
      for (int i = 0; i <= 9; ++i) f.ex(i, j, k) = float(j);
  InterpolatorArray interp(g);
  interp.load(f);
  // In cell j=3: edges at j=3 (value 3) and j=4 (value 4); offset dy maps
  // linearly between them.
  const auto v = g.voxel(4, 3, 4);
  EXPECT_NEAR(interp.evaluate(v, 0, -1.0f, 0).ex, 3.0f, 1e-6);
  EXPECT_NEAR(interp.evaluate(v, 0, 0.0f, 0).ex, 3.5f, 1e-6);
  EXPECT_NEAR(interp.evaluate(v, 0, 0.5f, 0).ex, 3.75f, 1e-6);
}

TEST(InterpolatorTest, CrossTermExact) {
  // Ex = y*z product field: the d2exdydz term must capture it exactly.
  const grid::LocalGrid g(cube_grid(4, 1.0));
  grid::FieldArray f(g);
  for (int k = 0; k <= 5; ++k)
    for (int j = 0; j <= 5; ++j)
      for (int i = 0; i <= 5; ++i) f.ex(i, j, k) = float(j * k);
  InterpolatorArray interp(g);
  interp.load(f);
  const auto v = g.voxel(2, 2, 2);
  // Bilinear in (y,z) between node values 2*2=4, 3*2=6, 2*3=6, 3*3=9.
  EXPECT_NEAR(interp.evaluate(v, 0, 0, 0).ex, 6.25f, 1e-6);
  EXPECT_NEAR(interp.evaluate(v, 0, -1, -1).ex, 4.0f, 1e-6);
  EXPECT_NEAR(interp.evaluate(v, 0, 1, 1).ex, 9.0f, 1e-6);
  EXPECT_NEAR(interp.evaluate(v, 0, 1, -1).ex, 6.0f, 1e-6);
}

TEST(InterpolatorTest, GhostCellsFeedBoundaryCells) {
  // Periodic field: interpolation in the last cell must see the wrapped
  // values through the refreshed ghosts.
  const grid::LocalGrid g(cube_grid(4));
  grid::FieldArray f(g);
  grid::Halo halo(g, nullptr);
  for (int k = 1; k <= 4; ++k)
    for (int j = 1; j <= 4; ++j)
      for (int i = 1; i <= 4; ++i) f.ey(i, j, k) = float(i);
  halo.refresh(f, grid::em_components());
  InterpolatorArray interp(g);
  interp.load(f);
  // Cell i=4: ey edges at i=4 (4.0) and i=5 -> ghost = wrapped value 1.0.
  const auto v = g.voxel(4, 2, 2);
  EXPECT_NEAR(interp.evaluate(v, -1, 0, 0).ey, 4.0f, 1e-6);
  EXPECT_NEAR(interp.evaluate(v, +1, 0, 0).ey, 1.0f, 1e-6);
}

}  // namespace
}  // namespace minivpic::particles
