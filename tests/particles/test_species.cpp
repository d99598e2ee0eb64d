#include "particles/species.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "harness.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace minivpic::particles {
namespace {

using testing::cube_grid;

TEST(SpeciesTest, LayoutIs32Bytes) { EXPECT_EQ(sizeof(Particle), 32u); }

TEST(SpeciesTest, ConstructionValidated) {
  EXPECT_NO_THROW(Species("e", -1.0, 1.0));
  EXPECT_THROW(Species("e", -1.0, 0.0), Error);
  EXPECT_THROW(Species("", -1.0, 1.0), Error);
}

TEST(SpeciesTest, AddGrowsStorage) {
  Species sp("e", -1.0, 1.0, 2);
  for (int n = 0; n < 100; ++n) {
    Particle p;
    p.w = float(n);
    sp.add(p);
  }
  EXPECT_EQ(sp.size(), 100u);
  EXPECT_GE(sp.capacity(), 100u);
  EXPECT_EQ(sp[99].w, 99.0f);
  EXPECT_EQ(sp[0].w, 0.0f);
}

TEST(SpeciesTest, RemoveBackfills) {
  Species sp("e", -1.0, 1.0);
  for (int n = 0; n < 4; ++n) {
    Particle p;
    p.w = float(n);
    sp.add(p);
  }
  sp.remove(1);
  EXPECT_EQ(sp.size(), 3u);
  EXPECT_EQ(sp[1].w, 3.0f);  // last particle moved into the gap
  sp.remove(2);
  EXPECT_EQ(sp.size(), 2u);
}

TEST(SpeciesTest, KineticEnergy) {
  Species sp("e", -1.0, 2.0);  // mass 2
  Particle p;
  p.ux = 3.0f;  // gamma = sqrt(10)
  p.w = 4.0f;
  sp.add(p);
  EXPECT_NEAR(sp.kinetic_energy(), 2.0 * 4.0 * (std::sqrt(10.0) - 1.0), 1e-5);
}

TEST(SpeciesTest, Momentum) {
  Species sp("e", -1.0, 2.0);
  Particle p;
  p.ux = 1.0f;
  p.uy = -2.0f;
  p.uz = 0.5f;
  p.w = 3.0f;
  sp.add(p);
  sp.add(p);
  const auto mom = sp.momentum();
  EXPECT_NEAR(mom[0], 2 * 2.0 * 3.0 * 1.0, 1e-6);
  EXPECT_NEAR(mom[1], 2 * 2.0 * 3.0 * -2.0, 1e-6);
  EXPECT_NEAR(mom[2], 2 * 2.0 * 3.0 * 0.5, 1e-6);
}

TEST(SpeciesTest, Charge) {
  Species sp("e", -2.0, 1.0);
  Particle p;
  p.w = 1.5f;
  sp.add(p);
  sp.add(p);
  EXPECT_NEAR(sp.charge(), -6.0, 1e-9);
}

TEST(SpeciesTest, SortOrdersByVoxel) {
  const grid::LocalGrid g(cube_grid(4));
  Species sp("e", -1.0, 1.0);
  Rng rng(7);
  for (int n = 0; n < 500; ++n) {
    Particle p;
    p.i = g.voxel(1 + int(rng.uniform_u64(4)), 1 + int(rng.uniform_u64(4)),
                  1 + int(rng.uniform_u64(4)));
    p.w = float(n);  // identity tag
    sp.add(p);
  }
  sp.sort(g);
  ASSERT_EQ(sp.size(), 500u);
  for (std::size_t n = 1; n < sp.size(); ++n)
    EXPECT_LE(sp[n - 1].i, sp[n].i) << "unsorted at " << n;
}

// NOTE: the in-place cycle-chasing sort is deliberately NOT stable (within a
// voxel the final order depends on where particles started, not on insertion
// order) — the stronger guarantees it does make (deterministic permutation,
// pipeline-count independence, idempotence) live in test_sort.cpp and
// docs/SORTING.md.

TEST(SpeciesTest, SortednessReportsOrder) {
  const grid::LocalGrid g(cube_grid(4));
  Species sp("e", -1.0, 1.0);
  // Degenerate sizes count as fully sorted.
  EXPECT_EQ(sp.sortedness(), 1.0);
  Rng rng(7);
  for (int n = 0; n < 500; ++n) {
    Particle p;
    p.i = g.voxel(1 + int(rng.uniform_u64(4)), 1 + int(rng.uniform_u64(4)),
                  1 + int(rng.uniform_u64(4)));
    sp.add(p);
  }
  EXPECT_LT(sp.sortedness(), 1.0);  // random voxel order has inversions
  EXPECT_GT(sp.sortedness(), 0.0);
  sp.sort(g);
  EXPECT_EQ(sp.sortedness(), 1.0);
}

TEST(SpeciesTest, SortPreservesMultisets) {
  const grid::LocalGrid g(cube_grid(3));
  Species sp("e", -1.0, 1.0);
  Rng rng(9);
  double wsum = 0;
  for (int n = 0; n < 300; ++n) {
    Particle p;
    p.i = g.voxel(1 + int(rng.uniform_u64(3)), 1 + int(rng.uniform_u64(3)),
                  1 + int(rng.uniform_u64(3)));
    p.w = float(rng.uniform());
    wsum += p.w;
    sp.add(p);
  }
  sp.sort(g);
  double wsum2 = 0;
  for (const Particle& p : sp.particles()) wsum2 += p.w;
  EXPECT_NEAR(wsum2, wsum, 1e-9);
}

TEST(SpeciesTest, SortRejectsCorruptVoxel) {
  const grid::LocalGrid g(cube_grid(2));
  Species sp("e", -1.0, 1.0);
  Particle p;
  p.i = 10000;  // out of range
  sp.add(p);
  Particle q;
  q.i = g.voxel(1, 1, 1);
  sp.add(q);
  EXPECT_THROW(sp.sort(g), Error);
}

TEST(SpeciesTest, EmptyDiagnostics) {
  Species sp("e", -1.0, 1.0);
  EXPECT_EQ(sp.kinetic_energy(), 0.0);
  EXPECT_EQ(sp.charge(), 0.0);
  EXPECT_EQ(sp.bytes(), 0);
}

}  // namespace
}  // namespace minivpic::particles
