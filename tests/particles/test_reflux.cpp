#include <gtest/gtest.h>

#include <cmath>

#include "harness.hpp"
#include "sim/simulation.hpp"
#include "util/error.hpp"

namespace minivpic::particles {
namespace {

using testing::Pic;
using testing::cube_grid;

grid::GlobalGrid slab_grid() {
  auto g = cube_grid(8, 0.5);
  g.boundary = grid::lpi_boundaries();
  return g;
}

ParticleBcSpec reflux_x() {
  ParticleBcSpec bc = periodic_particles();
  bc[grid::kFaceXLo] = ParticleBc::kReflux;
  bc[grid::kFaceXHi] = ParticleBc::kReflux;
  return bc;
}

TEST(RefluxTest, WallTemperatureRequiredWhenHit) {
  Pic pic(slab_grid(), reflux_x());
  Species sp("e", -1.0, 1.0);
  Particle p;
  p.i = pic.grid.voxel(8, 4, 4);
  p.dx = 0.9f;
  p.ux = 2.0f;  // heads straight into the +x wall
  p.w = 1e-10f;
  sp.add(p);
  // No reflux temperature configured: hitting the wall must be an error,
  // not silent garbage.
  EXPECT_THROW(
      {
        for (int s = 0; s < 20; ++s) pic.step({&sp});
      },
      Error);
}

TEST(RefluxTest, ConservesParticleCount) {
  Pic pic(slab_grid(), reflux_x());
  pic.pusher.set_reflux_uth(0.1);
  Species sp("e", -1.0, 1.0);
  LoadConfig cfg;
  cfg.ppc = 8;
  cfg.uth = 0.3;  // hot: constant wall traffic
  load_uniform(sp, pic.grid, cfg);
  const std::size_t n0 = sp.size();
  std::int64_t refluxed = 0;
  for (int s = 0; s < 40; ++s) {
    pic.pusher.set_reflux_uth(0.1);
    refluxed += pic.step({&sp}).refluxed;
  }
  EXPECT_EQ(sp.size(), n0) << "reflux must not create or destroy particles";
  EXPECT_GT(refluxed, 0) << "walls were never hit — test is vacuous";
}

TEST(RefluxTest, ReemittedInward) {
  Pic pic(slab_grid(), reflux_x());
  pic.pusher.set_reflux_uth(0.05);
  Species sp("e", -1.0, 1.0);
  Particle p;
  p.i = pic.grid.voxel(8, 4, 4);
  p.dx = 0.9f;
  p.ux = 1.5f;
  p.w = 1e-10f;
  sp.add(p);
  std::int64_t refluxed = 0;
  for (int s = 0; s < 30; ++s) {
    pic.pusher.set_reflux_uth(0.05);
    refluxed += pic.step({&sp}).refluxed;
  }
  ASSERT_GT(refluxed, 0);
  ASSERT_EQ(sp.size(), 1u);
  // Still inside the domain, and now thermal instead of a 1.5c beam.
  const auto c = pic.grid.voxel_coords(sp[0].i);
  EXPECT_TRUE(pic.grid.is_interior(c[0], c[1], c[2]));
  EXPECT_LT(std::abs(sp[0].ux), 0.5f);
}

TEST(RefluxTest, WallKeepsPlasmaThermal) {
  // A bounded thermal plasma in contact with same-temperature walls must
  // stay near its temperature (no wall heating/cooling pathology).
  Pic pic(slab_grid(), reflux_x());
  const double uth = 0.15;
  Species sp("e", -1.0, 1.0);
  LoadConfig cfg;
  cfg.ppc = 16;
  cfg.uth = uth;
  load_uniform(sp, pic.grid, cfg);
  const double ke0 = sp.kinetic_energy();
  for (int s = 0; s < 100; ++s) {
    pic.pusher.set_reflux_uth(uth);
    pic.step({&sp});
  }
  EXPECT_NEAR(sp.kinetic_energy(), ke0, 0.25 * ke0);
}

TEST(RefluxTest, VersusAbsorbKeepsDensity) {
  // Same hot plasma, reflux vs absorb walls: absorb drains particles,
  // reflux holds them.
  auto run = [](ParticleBc wall, double* final_fraction) {
    ParticleBcSpec bc = periodic_particles();
    bc[grid::kFaceXLo] = wall;
    bc[grid::kFaceXHi] = wall;
    Pic pic(slab_grid(), bc);
    pic.pusher.set_reflux_uth(0.3);
    Species sp("e", -1.0, 1.0);
    LoadConfig cfg;
    cfg.ppc = 8;
    cfg.uth = 0.3;
    load_uniform(sp, pic.grid, cfg);
    const double n0 = double(sp.size());
    for (int s = 0; s < 60; ++s) {
      pic.pusher.set_reflux_uth(0.3);
      pic.step({&sp});
    }
    *final_fraction = double(sp.size()) / n0;
  };
  double kept_reflux = 0, kept_absorb = 0;
  run(ParticleBc::kReflux, &kept_reflux);
  run(ParticleBc::kAbsorb, &kept_absorb);
  EXPECT_EQ(kept_reflux, 1.0);
  EXPECT_LT(kept_absorb, 0.95);
}

TEST(RefluxTest, DeckIntegration) {
  // Reflux configured through the simulation driver.
  sim::Deck d;
  d.grid = slab_grid();
  d.particle_bc = reflux_x();
  sim::SpeciesConfig e;
  e.name = "electron";
  e.q = -1;
  e.m = 1;
  e.load.ppc = 8;
  e.load.uth = 0.3;
  d.species.push_back(e);
  sim::Simulation sim(d);
  sim.initialize();
  const auto n0 = sim.global_particle_count();
  sim.run(40);
  EXPECT_EQ(sim.global_particle_count(), n0);
  EXPECT_GT(sim.particle_stats().refluxed, 0);
}

}  // namespace
}  // namespace minivpic::particles
