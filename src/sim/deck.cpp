#include "sim/deck.hpp"

#include <cmath>
#include <numbers>

#include "util/error.hpp"
#include "util/units.hpp"

namespace minivpic::sim {

Deck plasma_oscillation_deck(int cells, int ppc, double perturbation) {
  Deck d;
  d.grid.nx = cells;
  d.grid.ny = d.grid.nz = 4;
  d.grid.dx = d.grid.dy = d.grid.dz = 0.5;

  const double lx = d.grid.lx();
  const double k = 2.0 * std::numbers::pi / lx;

  SpeciesConfig electrons;
  electrons.name = "electron";
  electrons.q = -1.0;
  electrons.m = 1.0;
  electrons.load.ppc = ppc;
  electrons.load.uth = 0.0;  // cold: oscillates at exactly omega_pe
  electrons.load.drift_profile = [k, perturbation](double x, double, double) {
    return std::array<double, 3>{perturbation * std::sin(k * x), 0, 0};
  };
  d.species.push_back(electrons);

  SpeciesConfig ions;
  ions.name = "ion";
  ions.q = +1.0;
  ions.m = 1836.0;
  ions.load.ppc = ppc;
  ions.mobile = false;
  d.species.push_back(ions);
  return d;
}

Deck two_stream_deck(int cells, int ppc, double u_drift) {
  Deck d;
  d.grid.nx = cells;
  d.grid.ny = d.grid.nz = 4;
  d.grid.dx = d.grid.dy = d.grid.dz = 0.5;

  for (int s = 0; s < 2; ++s) {
    SpeciesConfig beam;
    beam.name = s == 0 ? "beam_fwd" : "beam_bwd";
    beam.q = -1.0;
    beam.m = 1.0;
    beam.load.ppc = ppc;
    beam.load.density = 0.5;  // two half-density beams
    beam.load.uth = 0.002;    // tiny spread to seed the instability
    beam.load.drift = {s == 0 ? u_drift : -u_drift, 0, 0};
    beam.load.seed = 100 + std::uint64_t(s);
    d.species.push_back(beam);
  }

  SpeciesConfig ions;
  ions.name = "ion";
  ions.q = +1.0;
  ions.m = 1836.0;
  ions.load.ppc = ppc;
  ions.load.density = 1.0;
  ions.mobile = false;
  d.species.push_back(ions);
  return d;
}

Deck weibel_deck(int cells, int ppc, double uth_hot, double uth_cold) {
  Deck d;
  d.grid.nx = cells;
  d.grid.ny = cells;
  d.grid.nz = 4;
  d.grid.dx = d.grid.dy = d.grid.dz = 0.5;

  SpeciesConfig electrons;
  electrons.name = "electron";
  electrons.q = -1.0;
  electrons.m = 1.0;
  electrons.load.ppc = ppc;
  // Hot along z, cold in the simulation plane: B_z filaments grow in (x,y).
  electrons.load.uth3 = {uth_cold, uth_cold, uth_hot};
  d.species.push_back(electrons);

  SpeciesConfig ions;
  ions.name = "ion";
  ions.q = +1.0;
  ions.m = 1836.0;
  ions.load.ppc = ppc;
  ions.mobile = false;
  d.species.push_back(ions);
  return d;
}

Deck lpi_deck(const LpiParams& p) {
  MV_REQUIRE(p.n_over_nc > 0 && p.n_over_nc < 0.25,
             "SRS study needs underdense plasma (n/n_c < 1/4)");
  MV_REQUIRE(p.vacuum_cells * 2 < p.nx, "vacuum gaps exceed the box");

  Deck d;
  d.grid.nx = p.nx;
  d.grid.ny = p.ny;
  d.grid.nz = p.nz;
  d.grid.dx = d.grid.dy = d.grid.dz = p.dx;
  d.grid.boundary = grid::lpi_boundaries();
  d.particle_bc = particles::lpi_particles();
  d.sort_every = 20;
  d.clean_period = 50;

  const double x_lo = p.vacuum_cells * p.dx;
  const double x_hi = (p.nx - p.vacuum_cells) * p.dx;
  const auto slab = [x_lo, x_hi](double x, double, double) {
    return (x >= x_lo && x < x_hi) ? 1.0 : 0.0;
  };

  SpeciesConfig electrons;
  electrons.name = "electron";
  electrons.q = -1.0;
  electrons.m = 1.0;
  electrons.load.ppc = p.ppc;
  electrons.load.uth = units::uth_from_te_kev(p.te_kev);
  electrons.load.profile = slab;
  electrons.load.seed = p.seed;
  d.species.push_back(electrons);

  SpeciesConfig ions;
  ions.name = "ion";
  ions.q = +1.0;
  ions.m = p.ion_mass;
  ions.load.ppc = p.ppc;
  // Roughly Ti = Te/3, a typical hohlraum ratio.
  ions.load.uth = units::uth_from_te_kev(p.te_kev / 3.0) / std::sqrt(p.ion_mass);
  ions.load.profile = slab;
  ions.load.seed = p.seed;
  ions.mobile = p.mobile_ions;
  d.species.push_back(ions);

  field::LaserConfig laser;
  laser.omega0 = units::omega0_over_omegape(p.n_over_nc);
  laser.a0 = p.a0;
  laser.ramp = p.laser_ramp;
  laser.global_plane = 2;
  d.laser = laser;
  return d;
}

}  // namespace minivpic::sim
