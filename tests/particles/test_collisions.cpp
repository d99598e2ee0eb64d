#include "particles/collisions.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cmath>

#include "harness.hpp"
#include "particles/loader.hpp"
#include "util/error.hpp"
#include "util/math.hpp"

namespace minivpic::particles {
namespace {

using testing::cube_grid;

std::array<double, 4> momentum_and_ke(const Species& sp) {
  std::array<double, 4> out{0, 0, 0, 0};
  for (const Particle& p : sp.particles()) {
    out[0] += double(p.w) * sp.m() * p.ux;
    out[1] += double(p.w) * sp.m() * p.uy;
    out[2] += double(p.w) * sp.m() * p.uz;
    out[3] += 0.5 * double(p.w) * sp.m() *
              (double(p.ux) * p.ux + double(p.uy) * p.uy + double(p.uz) * p.uz);
  }
  return out;
}

TEST(CollisionsTest, ZeroRateIsNoop) {
  const grid::LocalGrid g(cube_grid(4));
  Species sp("e", -1.0, 1.0);
  LoadConfig cfg;
  cfg.ppc = 8;
  cfg.uth = 0.1;
  load_uniform(sp, g, cfg);
  sp.sort(g);
  const Particle p0 = sp[10];
  const auto st = collide_intraspecies(sp, g, 0.0, 0.1, 1, 0);
  EXPECT_EQ(st.pairs, 0);
  EXPECT_EQ(sp[10].ux, p0.ux);
}

TEST(CollisionsTest, ParameterValidation) {
  const grid::LocalGrid g(cube_grid(4));
  Species sp("e", -1.0, 1.0);
  EXPECT_THROW(collide_intraspecies(sp, g, -1.0, 0.1, 1, 0), Error);
  EXPECT_THROW(collide_intraspecies(sp, g, 1.0, 0.0, 1, 0), Error);
  Species b("i", 1.0, 1836.0);
  EXPECT_THROW(collide_interspecies(sp, sp, g, 1.0, 0.1, 1, 0), Error);
  EXPECT_NO_THROW(collide_interspecies(sp, b, g, 1.0, 0.1, 1, 0));
}

TEST(CollisionsTest, ConservesMomentumAndEnergyEqualWeights) {
  const grid::LocalGrid g(cube_grid(4));
  Species sp("e", -1.0, 1.0);
  LoadConfig cfg;
  cfg.ppc = 16;  // even count per cell: pure pair path, exact conservation
  cfg.uth = 0.1;
  load_uniform(sp, g, cfg);
  sp.sort(g);
  const auto before = momentum_and_ke(sp);
  const auto st = collide_intraspecies(sp, g, 1e-4, 0.5, 42, 3);
  EXPECT_GT(st.pairs, 0);
  EXPECT_GT(st.scattered, 0);
  const auto after = momentum_and_ke(sp);
  for (int c = 0; c < 3; ++c)
    EXPECT_NEAR(after[std::size_t(c)], before[std::size_t(c)], 2e-5)
        << "momentum component " << c;
  EXPECT_NEAR(after[3], before[3], 2e-5 * std::max(before[3], 1.0));
}

TEST(CollisionsTest, PreservesRelativeSpeed) {
  // One isolated pair: |u_rel| is invariant under the scatter rotation.
  const grid::LocalGrid g(cube_grid(4));
  Species sp("e", -1.0, 1.0);
  Particle a, b;
  a.i = b.i = g.voxel(2, 2, 2);
  a.ux = 0.3f;
  a.uy = 0.1f;
  a.w = 1.0f;
  b.ux = -0.2f;
  b.uz = 0.15f;
  b.w = 1.0f;
  sp.add(a);
  sp.add(b);
  const double u0 = std::hypot(0.5, 0.1, -0.15);
  collide_intraspecies(sp, g, 1e-3, 1.0, 9, 0);
  const double u1 = std::hypot(double(sp[0].ux) - sp[1].ux,
                               double(sp[0].uy) - sp[1].uy,
                               double(sp[0].uz) - sp[1].uz);
  EXPECT_NEAR(u1, u0, 1e-6);
  // Something actually rotated.
  EXPECT_TRUE(sp[0].ux != a.ux || sp[0].uy != a.uy || sp[0].uz != a.uz);
}

TEST(CollisionsTest, IsotropizesAnisotropicPlasma) {
  // Tz >> Tx,y must relax toward isotropy — the defining test of a Coulomb
  // collision operator.
  const grid::LocalGrid g(cube_grid(4, 1.0));
  Species sp("e", -1.0, 1.0);
  LoadConfig cfg;
  cfg.ppc = 64;
  cfg.uth3 = {0.05, 0.05, 0.2};
  load_uniform(sp, g, cfg);
  sp.sort(g);
  auto anisotropy = [&sp] {
    double tz = 0, tp = 0;
    for (const Particle& p : sp.particles()) {
      tz += double(p.uz) * p.uz;
      tp += 0.5 * (double(p.ux) * p.ux + double(p.uy) * p.uy);
    }
    return tz / tp;
  };
  const double a0 = anisotropy();
  ASSERT_GT(a0, 8.0);
  for (int s = 0; s < 60; ++s) collide_intraspecies(sp, g, 2e-4, 0.5, 5, s);
  const double a1 = anisotropy();
  EXPECT_LT(a1, 0.7 * a0) << "collisions failed to isotropize";
  EXPECT_GT(a1, 0.9);  // must not overshoot below isotropy
}

TEST(CollisionsTest, IsotropizationRateScalesWithNu) {
  auto relax = [](double nu) {
    const grid::LocalGrid g(cube_grid(4, 1.0));
    Species sp("e", -1.0, 1.0);
    LoadConfig cfg;
    cfg.ppc = 64;
    cfg.uth3 = {0.05, 0.05, 0.2};
    load_uniform(sp, g, cfg);
    sp.sort(g);
    for (int s = 0; s < 20; ++s) collide_intraspecies(sp, g, nu, 0.5, 5, s);
    double tz = 0, tp = 0;
    for (const Particle& p : sp.particles()) {
      tz += double(p.uz) * p.uz;
      tp += 0.5 * (double(p.ux) * p.ux + double(p.uy) * p.uy);
    }
    return tz / tp;
  };
  EXPECT_LT(relax(4e-4), relax(1e-4));
}

TEST(CollisionsTest, InterspeciesDragsBeamOnHeavyBackground) {
  // A cold electron beam drifting through heavy ions: pitch-angle
  // scattering isotropizes the beam while the ions barely move.
  const grid::LocalGrid g(cube_grid(4, 1.0));
  Species e("e", -1.0, 1.0);
  Species ion("i", +1.0, 1836.0);
  LoadConfig cfg;
  cfg.ppc = 32;
  cfg.uth = 0.002;
  cfg.drift = {0.1, 0, 0};
  load_uniform(e, g, cfg);
  cfg.drift = {0, 0, 0};
  cfg.uth = 0.0001;
  load_uniform(ion, g, cfg);
  e.sort(g);
  ion.sort(g);
  auto perp_spread = [&e] {
    double s = 0;
    for (const Particle& p : e.particles())
      s += double(p.uy) * p.uy + double(p.uz) * p.uz;
    return s / double(e.size());
  };
  const double s0 = perp_spread();
  for (int s = 0; s < 30; ++s)
    collide_interspecies(e, ion, g, 2e-4, 0.5, 7, s);
  EXPECT_GT(perp_spread(), 10 * std::max(s0, 1e-12))
      << "beam failed to scatter";
  // Ion kinetic energy stays tiny (mass ratio).
  EXPECT_LT(ion.kinetic_energy(), 0.2 * e.kinetic_energy());
}

TEST(CollisionsTest, OddCountTripleHandled) {
  const grid::LocalGrid g(cube_grid(2, 1.0));
  Species sp("e", -1.0, 1.0);
  for (int n = 0; n < 3; ++n) {  // exactly 3 in one cell
    Particle p;
    p.i = g.voxel(1, 1, 1);
    p.ux = 0.1f * float(n - 1);
    p.uy = 0.05f * float(n);
    p.w = 1.0f;
    sp.add(p);
  }
  const auto before = momentum_and_ke(sp);
  const auto st = collide_intraspecies(sp, g, 1e-3, 1.0, 3, 1);
  EXPECT_EQ(st.pairs, 3);  // the TA triple
  const auto after = momentum_and_ke(sp);
  for (int c = 0; c < 3; ++c)
    EXPECT_NEAR(after[std::size_t(c)], before[std::size_t(c)], 1e-7);
  EXPECT_NEAR(after[3], before[3], 1e-7);
}

TEST(CollisionsTest, DeterministicGivenSeedAndStep) {
  auto run = [](std::uint64_t seed) {
    const grid::LocalGrid g(cube_grid(3));
    Species sp("e", -1.0, 1.0);
    LoadConfig cfg;
    cfg.ppc = 8;
    cfg.uth = 0.1;
    load_uniform(sp, g, cfg);
    sp.sort(g);
    collide_intraspecies(sp, g, 1e-4, 0.5, seed, 2);
    double checksum = 0;
    for (const Particle& p : sp.particles()) checksum += p.ux;
    return checksum;
  };
  EXPECT_EQ(run(5), run(5));
  EXPECT_NE(run(5), run(6));
}

}  // namespace
}  // namespace minivpic::particles
