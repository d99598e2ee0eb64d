// F1 — weak scaling: fixed work per rank, growing rank count.
//
// Two parts:
//  (a) measured: the deck runs on 1..8 vmpi ranks (threads) with a fixed
//      per-rank slab; we report aggregate particle throughput and — the
//      number that actually predicts scalability — the fraction of each
//      rank's time spent in communication-side phases (migration + source
//      reduction) versus the particle advance. NOTE: this host is a single
//      core, so wall-clock does not speed up with ranks here; the comm
//      fraction and the per-rank work balance are the transferable signal.
//  (b) modeled: the Roadrunner model extrapolates the same per-chip load
//      from 1 connected unit to the full 17-CU machine — the paper's
//      near-linear curve ending at 0.374 Pflop/s sustained.
#include <iostream>
#include <vector>

#include "perf/costs.hpp"
#include "perf/roadrunner.hpp"
#include "sim/simulation.hpp"
#include "util/cli.hpp"
#include "util/csv.hpp"
#include "util/timer.hpp"
#include "vmpi/runtime.hpp"

using namespace minivpic;

namespace {

struct RankResult {
  double push_s = 0, comm_s = 0, total_s = 0;
  long long pushed = 0;
};

sim::Deck weak_deck(int ranks) {
  sim::Deck d;
  d.grid.nx = 12 * ranks;  // 12^3 cells per rank along x
  d.grid.ny = d.grid.nz = 12;
  d.grid.dx = d.grid.dy = d.grid.dz = 0.4;
  sim::SpeciesConfig e;
  e.name = "electron";
  e.q = -1;
  e.m = 1;
  e.load.ppc = 24;
  e.load.uth = 0.15;
  d.species.push_back(e);
  sim::SpeciesConfig ion = e;
  ion.name = "ion";
  ion.q = +1;
  ion.m = 1836;
  ion.mobile = false;
  d.species.push_back(ion);
  return d;
}

}  // namespace

int main(int argc, char** argv) try {
  Args args(argc, argv);
  if (args.has("help")) {
    std::cout << "usage: bench_weak_scaling\n";
    return 0;
  }
  args.check_known({});
  const int steps = 20;
  Table measured({"ranks", "global particles", "wall s/step",
                  "aggregate Mpart/s", "comm fraction %", "imbalance %"});

  for (int ranks : {1, 2, 4, 8}) {
    const sim::Deck deck = weak_deck(ranks);
    std::vector<RankResult> results(static_cast<std::size_t>(ranks));
    Timer wall;
    double wall_s = 0;
    vmpi::run(ranks, [&](vmpi::Comm& comm) {
      const vmpi::CartTopology topo({ranks, 1, 1}, {true, true, true});
      sim::Simulation sim(deck, &comm, &topo);
      sim.initialize();
      comm.barrier();
      if (comm.rank() == 0) wall.reset();
      sim.run(steps);
      comm.barrier();
      if (comm.rank() == 0) wall_s = wall.seconds();
      RankResult r;
      r.push_s = sim.timings().push.total_seconds();
      r.comm_s = sim.timings().migrate.total_seconds() +
                 sim.timings().sources.total_seconds();
      r.total_s = sim.timings().total_seconds();
      r.pushed = sim.particle_stats().pushed;
      results[std::size_t(comm.rank())] = r;  // distinct slots: no race
    });

    long long pushed = 0;
    double push_s = 0, comm_s = 0, total_s = 0, max_total = 0;
    for (const auto& r : results) {
      pushed += r.pushed;
      push_s += r.push_s;
      comm_s += r.comm_s;
      total_s += r.total_s;
      max_total = std::max(max_total, r.total_s);
    }
    const double imbalance =
        100.0 * (max_total * ranks - total_s) / (max_total * ranks);
    measured.add_row({(long long)ranks, pushed / steps, wall_s / steps,
                      double(pushed) / wall_s / 1e6,
                      100.0 * comm_s / total_s, imbalance});
  }
  measured.print(std::cout,
                 "F1a: measured weak scaling over vmpi ranks (single core "
                 "host: wall time serializes; watch the comm fraction)");

  // Model extrapolation to Roadrunner CU counts.
  const perf::RoadrunnerModel model;
  const double per_chip_particles = 1.0e12 / model.total_cells();
  const double per_chip_voxels = 136.0e6 / model.total_cells();
  Table projected({"CUs", "Cell chips", "particles", "inner Pflop/s",
                   "sustained Pflop/s", "parallel eff %"});
  double base_rate = 0;
  for (int cu : {1, 2, 4, 8, 12, 17}) {
    const int chips = cu * 180 * 4;
    const auto p = model.predict(per_chip_particles * chips,
                                 per_chip_voxels * chips, chips);
    if (cu == 1) base_rate = p.sustained_flops / chips;
    projected.add_row({(long long)cu, (long long)chips,
                       per_chip_particles * chips, p.inner_loop_flops / 1e15,
                       p.sustained_flops / 1e15,
                       100.0 * (p.sustained_flops / chips) / base_rate});
  }
  std::cout << "\n";
  projected.print(std::cout,
                  "F1b: Roadrunner model weak scaling (paper: near-linear to "
                  "0.374 Pflop/s at 17 CUs)");
  return 0;
} catch (const std::exception& e) {
  std::cerr << "bench_weak_scaling: " << e.what() << "\n";
  return 1;
}
