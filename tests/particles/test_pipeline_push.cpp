// The pipeline layer's correctness contract: advancing a species on N
// pipelines — each depositing into a private accumulator block, folded once
// per step — must reproduce the serial advance *exactly* (bit-identical
// unloaded J, identical counters, identical survivors) on decks without
// reflux walls, and statistically on decks with them (reflux draws come
// from per-pipeline RNG streams).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "harness.hpp"
#include "sim/simulation.hpp"
#include "util/error.hpp"
#include "util/pipeline.hpp"

namespace minivpic::particles {
namespace {

using testing::Pic;
using testing::cube_grid;
using testing::j_close;
using testing::j_identical;

/// Loads counter-streaming electron beams (the two-stream setup): same
/// deterministic loader seed in both harnesses gives identical particles.
void load_two_stream(Species& a, Species& b, const grid::LocalGrid& g) {
  LoadConfig cfg;
  cfg.ppc = 12;
  cfg.uth = 0.02;
  cfg.drift = {0.3, 0, 0};
  load_uniform(a, g, cfg);
  cfg.drift = {-0.3, 0, 0};
  load_uniform(b, g, cfg);
}

TEST(PipelinePushTest, SparseDepositMatchesSerialBitwise) {
  // When no cell collects more than one deposit per accumulator block, the
  // in-order block fold reproduces the serial per-cell addition sequence
  // exactly — this is ==, not EXPECT_NEAR. Eight slow particles in eight
  // well-separated cells, two per pipeline.
  Pic serial(cube_grid(8, 0.5));
  Pic piped(cube_grid(8, 0.5), periodic_particles(), 4);
  auto load = [](Species& sp, const grid::LocalGrid& g) {
    int n = 0;
    for (int c = 1; c <= 8; ++c) {
      Particle p;
      p.i = g.voxel(c, 1 + (c % 4) * 2, 1 + (c / 2) % 4 * 2);
      p.ux = 0.05f * float(n + 1);
      p.uy = -0.03f * float(n);
      p.uz = 0.02f;
      p.w = 0.7f;
      sp.add(p);
      ++n;
    }
  };
  Species ss("e", -1.0, 1.0), sp("e", -1.0, 1.0);
  load(ss, serial.grid);
  load(sp, piped.grid);
  const auto rs = serial.step({&ss});
  const auto rp = piped.step({&sp});
  EXPECT_EQ(rs.pushed, rp.pushed);
  EXPECT_EQ(rs.crossings, rp.crossings);
  ASSERT_TRUE(j_identical(serial.fields, piped.fields));
  // And the trajectories are always bit-identical in an identical field.
  for (std::size_t n = 0; n < ss.size(); ++n) {
    EXPECT_EQ(ss[n].i, sp[n].i);
    EXPECT_EQ(ss[n].dx, sp[n].dx);
    EXPECT_EQ(ss[n].ux, sp[n].ux);
  }
}

TEST(PipelinePushTest, DenseTwoStreamMatchesSerialToRounding) {
  // Dense deck: cells collect many deposits per block, so the fold rounds
  // in a different order than the serial running sum — agreement is to
  // float rounding (ULPs per cell), with counters still exact.
  Pic serial(cube_grid(8, 0.5));
  Pic piped(cube_grid(8, 0.5), periodic_particles(), 4);
  Species se("e+", -1.0, 1.0), sb("e-", -1.0, 1.0);
  Species pe("e+", -1.0, 1.0), pb("e-", -1.0, 1.0);
  load_two_stream(se, sb, serial.grid);
  load_two_stream(pe, pb, piped.grid);

  for (int s = 0; s < 5; ++s) {
    const auto rs = serial.step({&se, &sb});
    const auto rp = piped.step({&pe, &pb});
    EXPECT_EQ(rs.pushed, rp.pushed);
    ASSERT_TRUE(j_close(serial.fields, piped.fields, 1e-4)) << "step " << s;
  }
  EXPECT_EQ(se.size(), pe.size());
  EXPECT_EQ(sb.size(), pb.size());
}

TEST(PipelinePushTest, TwoStreamDeckMatchesSerialThroughSimulation) {
  // The same contract via the production driver on the two-stream deck:
  // deck.pipelines = N tracks deck.pipelines = 1 to rounding.
  auto deck1 = sim::two_stream_deck(8, 8, 0.2);
  auto deckN = deck1;
  deck1.pipelines = 1;
  deckN.pipelines = 3;
  sim::Simulation s1(deck1), sN(deckN);
  s1.initialize();
  sN.initialize();
  EXPECT_EQ(sN.pipelines(), 3);
  s1.run(5);
  sN.run(5);
  EXPECT_TRUE(j_close(s1.fields(), sN.fields(), 1e-4));
  const auto e1 = s1.energies();
  const auto eN = sN.energies();
  EXPECT_NEAR(eN.kinetic_total / e1.kinetic_total, 1.0, 1e-6);
  EXPECT_NEAR(eN.field.total() / e1.field.total(), 1.0, 1e-4);
}

TEST(PipelinePushTest, AbsorbingWallCountersMatchSerial) {
  // Absorption is deterministic; emigrant/dead splicing is pipeline-major
  // in particle order, so even the removal sequence matches serial.
  auto gg = cube_grid(8, 0.5);
  gg.boundary = grid::lpi_boundaries();
  Pic serial(gg, lpi_particles());
  Pic piped(gg, lpi_particles(), 4);
  Species ss("e", -1.0, 1.0), sp("e", -1.0, 1.0);
  LoadConfig cfg;
  cfg.ppc = 8;
  cfg.uth = 0.3;  // hot: steady wall losses
  load_uniform(ss, serial.grid, cfg);
  load_uniform(sp, piped.grid, cfg);

  std::int64_t absorbed_s = 0, absorbed_p = 0;
  for (int s = 0; s < 20; ++s) {
    const auto rs = serial.step({&ss});
    const auto rp = piped.step({&sp});
    EXPECT_EQ(rs.pushed, rp.pushed) << "step " << s;
    EXPECT_EQ(rs.crossings, rp.crossings) << "step " << s;
    EXPECT_EQ(rs.absorbed, rp.absorbed) << "step " << s;
    absorbed_s += rs.absorbed;
    absorbed_p += rp.absorbed;
  }
  EXPECT_GT(absorbed_s, 0) << "walls never hit — test is vacuous";
  EXPECT_EQ(absorbed_s, absorbed_p);
  EXPECT_EQ(ss.size(), sp.size());
}

TEST(PipelinePushTest, ChargeConservedAtNPipelines) {
  // div E - rho stays a constant of the motion when the deposit is split
  // across pipelines (the private-block fold must not drop or double count
  // any quadrant flux).
  Pic pic(cube_grid(6, 0.5), periodic_particles(), 4);
  Species sp("e", -1.0, 1.0);
  LoadConfig cfg;
  cfg.ppc = 16;
  cfg.uth = 0.5;  // many crossings per step
  load_uniform(sp, pic.grid, cfg);

  auto residual = [&]() {
    std::vector<double> r;
    const auto& g = pic.grid;
    for (int k = 1; k <= g.nz(); ++k)
      for (int j = 1; j <= g.ny(); ++j)
        for (int i = 1; i <= g.nx(); ++i)
          r.push_back(
              (double(pic.fields.ex(i, j, k)) - pic.fields.ex(i - 1, j, k)) /
                  g.dx() +
              (double(pic.fields.ey(i, j, k)) - pic.fields.ey(i, j - 1, k)) /
                  g.dy() +
              (double(pic.fields.ez(i, j, k)) - pic.fields.ez(i, j, k - 1)) /
                  g.dz() -
              pic.fields.rhof(i, j, k));
    return r;
  };
  pic.fields.clear_sources();
  accumulate_rho(sp, pic.fields);
  pic.halo.reduce_sources(pic.fields);
  const auto r0 = residual();
  double drift = 0;
  for (int s = 0; s < 10; ++s) {
    pic.step({&sp});
    const auto r = residual();
    for (std::size_t n = 0; n < r.size(); ++n)
      drift = std::max(drift, std::abs(r[n] - r0[n]));
  }
  EXPECT_LT(drift, 5e-4);
}

TEST(PipelinePushTest, RefluxStatisticsMatchSerial) {
  // Reflux walls draw from per-pipeline RNG streams, so a 2-pipeline run
  // diverges from serial particle-by-particle — but the wall physics must
  // agree statistically: same count conservation, similar traffic, similar
  // plasma temperature. (Regression for the old shared mutable RNG, which
  // would have been a data race across pipelines.)
  auto gg = cube_grid(8, 0.5);
  gg.boundary = grid::lpi_boundaries();
  ParticleBcSpec bc = periodic_particles();
  bc[grid::kFaceXLo] = ParticleBc::kReflux;
  bc[grid::kFaceXHi] = ParticleBc::kReflux;

  const double uth = 0.3;
  auto run = [&](int pipelines, std::int64_t* refluxed, double* ke) {
    Pic pic(gg, bc, pipelines);
    pic.pusher.set_reflux_uth(uth);
    Species sp("e", -1.0, 1.0);
    LoadConfig cfg;
    cfg.ppc = 8;
    cfg.uth = uth;
    load_uniform(sp, pic.grid, cfg);
    const std::size_t n0 = sp.size();
    *refluxed = 0;
    for (int s = 0; s < 40; ++s) *refluxed += pic.step({&sp}).refluxed;
    EXPECT_EQ(sp.size(), n0) << "reflux must conserve particle count";
    *ke = sp.kinetic_energy();
  };
  std::int64_t reflux1 = 0, reflux2 = 0;
  double ke1 = 0, ke2 = 0;
  run(1, &reflux1, &ke1);
  run(2, &reflux2, &ke2);
  ASSERT_GT(reflux1, 100) << "walls barely hit — comparison is vacuous";
  ASSERT_GT(reflux2, 100);
  EXPECT_NEAR(double(reflux2) / double(reflux1), 1.0, 0.25);
  EXPECT_NEAR(ke2 / ke1, 1.0, 0.25);
}

TEST(PipelinePushTest, AdvanceRequiresOneBlockPerPipeline) {
  Pic pic(cube_grid(4, 0.5));  // acc has a single block
  Species sp("e", -1.0, 1.0);
  LoadConfig cfg;
  cfg.ppc = 2;
  load_uniform(sp, pic.grid, cfg);
  Pipeline pool(3);
  EXPECT_THROW(pic.pusher.advance_skin(sp, pic.interp, pic.acc, &pool), Error);
  EXPECT_THROW(pic.pusher.advance_interior(sp, pic.interp, pic.acc, &pool),
               Error);
}

}  // namespace
}  // namespace minivpic::particles
