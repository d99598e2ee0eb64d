// Property sweeps: the core invariants (Gauss residual constancy, particle
// conservation, energy sanity) must hold across the whole parameter space
// the decks roam — thermal spread, drift, CFL, resolution, cadence.
#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "sim/simulation.hpp"

namespace minivpic::sim {
namespace {

struct SweepParams {
  double uth;
  double drift;
  double cfl;
  int sort_every;
};

class CoreInvariants : public ::testing::TestWithParam<SweepParams> {};

TEST_P(CoreInvariants, GaussAndCountsHold) {
  const auto p = GetParam();
  Deck d;
  d.grid.nx = d.grid.ny = d.grid.nz = 6;
  d.grid.dx = d.grid.dy = d.grid.dz = 0.5;
  d.grid.cfl = p.cfl;
  d.sort_every = p.sort_every;
  SpeciesConfig e;
  e.name = "electron";
  e.q = -1;
  e.m = 1;
  e.load.ppc = 8;
  e.load.uth = p.uth;
  e.load.drift = {p.drift, -p.drift / 2, 0};
  d.species.push_back(e);
  SpeciesConfig ion = e;
  ion.name = "ion";
  ion.q = +1;
  ion.m = 1836;
  ion.load.uth = p.uth / 40;
  ion.load.drift = {0, 0, 0};
  d.species.push_back(ion);

  Simulation sim(d);
  sim.initialize();
  const auto n0 = sim.global_particle_count();
  const double g0 = sim.gauss_error();
  sim.run(15);
  EXPECT_EQ(sim.global_particle_count(), n0);
  // The residual must stay at round-off scale: allow growth from the
  // initial sampling-noise value but no blow-up.
  EXPECT_LT(sim.gauss_error(), g0 + 2e-3);
  // No particle may ever leave the interior.
  for (std::size_t s = 0; s < sim.num_species(); ++s) {
    for (const auto& part : sim.species(s).particles()) {
      const auto c = sim.local_grid().voxel_coords(part.i);
      ASSERT_TRUE(sim.local_grid().is_interior(c[0], c[1], c[2]));
      ASSERT_LE(std::abs(part.dx), 1.0f);
      ASSERT_LE(std::abs(part.dy), 1.0f);
      ASSERT_LE(std::abs(part.dz), 1.0f);
    }
  }
  // Energies remain finite and sane.
  const auto rep = sim.energies();
  EXPECT_TRUE(std::isfinite(rep.total));
  EXPECT_GE(rep.field.total(), 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    ParameterMatrix, CoreInvariants,
    ::testing::Values(SweepParams{0.01, 0.0, 0.99, 20},   // cold, quiet
                      SweepParams{0.1, 0.0, 0.99, 20},    // warm
                      SweepParams{0.4, 0.0, 0.99, 20},    // hot, many crossings
                      SweepParams{0.1, 0.5, 0.99, 20},    // drifting
                      SweepParams{0.1, 2.0, 0.99, 20},    // relativistic beam
                      SweepParams{0.2, 0.0, 0.30, 20},    // small CFL
                      SweepParams{0.2, 0.0, 0.70, 20},    // mid CFL
                      SweepParams{0.3, 0.3, 0.99, 1},     // sort every step
                      SweepParams{0.3, 0.3, 0.99, 0}));   // never sort

class GridShapes : public ::testing::TestWithParam<std::array<int, 3>> {};

TEST_P(GridShapes, AnisotropicBoxesWork) {
  const auto shape = GetParam();
  Deck d;
  d.grid.nx = shape[0];
  d.grid.ny = shape[1];
  d.grid.nz = shape[2];
  d.grid.dx = 0.4;
  d.grid.dy = 0.6;
  d.grid.dz = 0.3;
  SpeciesConfig e;
  e.name = "electron";
  e.q = -1;
  e.m = 1;
  e.load.ppc = 6;
  e.load.uth = 0.2;
  d.species.push_back(e);
  SpeciesConfig ion = e;
  ion.name = "ion";
  ion.q = +1;
  ion.m = 1836;
  ion.mobile = false;
  d.species.push_back(ion);

  Simulation sim(d);
  sim.initialize();
  const auto n0 = sim.global_particle_count();
  sim.run(10);
  EXPECT_EQ(sim.global_particle_count(), n0);
  EXPECT_LT(sim.gauss_error(), 2e-3);
}

INSTANTIATE_TEST_SUITE_P(Shapes, GridShapes,
                         ::testing::Values(std::array<int, 3>{16, 2, 2},
                                           std::array<int, 3>{2, 16, 2},
                                           std::array<int, 3>{2, 2, 16},
                                           std::array<int, 3>{1, 8, 8},
                                           std::array<int, 3>{8, 1, 1},
                                           std::array<int, 3>{5, 7, 3}));

}  // namespace
}  // namespace minivpic::sim
