// Shared PIC stepping harness for the particle tests. The sim module
// provides the production loop; tests use this minimal copy of its particle
// schedule so kernel behaviour is observable in isolation: per species,
// pass S (skin) -> exchange of its emigrants -> pass I (interior) -> tail
// exchange -> compact_species, then the accumulator fold, unload, rho
// deposit, and field advance. Single-rank harnesses have no skin and no
// exchange partners; a multi-rank harness (built inside a vmpi rank
// function) deposits migration currents into its own accumulator block,
// the step loop's layout.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "field/solver.hpp"
#include "particles/accumulator.hpp"
#include "particles/interpolator.hpp"
#include "particles/loader.hpp"
#include "particles/migrate.hpp"
#include "particles/push.hpp"
#include "particles/rho.hpp"
#include "util/pipeline.hpp"
#include "vmpi/cart.hpp"

namespace minivpic::particles::testing {

struct Pic {
  /// Single rank, advancing on `pipelines` pipelines.
  explicit Pic(const grid::GlobalGrid& gg,
               const ParticleBcSpec& pbc = periodic_particles(),
               int pipelines = 1)
      : Pic(grid::LocalGrid(gg), nullptr, pbc, pipelines) {}

  /// This rank's slab of a decomposed grid; call inside a vmpi rank
  /// function.
  Pic(const grid::GlobalGrid& gg, const vmpi::CartTopology& topo,
      vmpi::Comm& c, const ParticleBcSpec& pbc = periodic_particles(),
      int pipelines = 1)
      : Pic(grid::LocalGrid(gg, topo, c.rank()), &c, pbc, pipelines) {}

  /// Summed over the species of one step.
  struct StepStats {
    std::int64_t pushed = 0;
    std::int64_t crossings = 0;
    std::int64_t absorbed = 0;  ///< at walls, during the push
    std::int64_t reflected = 0;
    std::int64_t refluxed = 0;
    MigrateStats migrate;  ///< both exchanges; rounds is the max per species
  };

  /// One full PIC step for the given species set.
  StepStats step(std::vector<Species*> species) {
    interp.load(fields);
    acc.clear();
    fields.clear_sources();
    // The migration block is the last one on multi-rank grids, block 0
    // otherwise (where the exchange never deposits).
    CellAccum* const migrate_block =
        acc.blocks() > pool.size() ? acc.block(pool.size()) : acc.data();
    StepStats st;
    for (Species* sp : species) {
      Pusher::Pass skin = pusher.advance_skin(*sp, interp, acc, &pool);
      std::vector<Particle> immigrants;
      const MigrateStats m =
          exchange_particles(std::move(skin.res.emigrants), *sp, pusher,
                             migrate_block, grid, comm, &immigrants);
      Pusher::Pass interior = pusher.advance_interior(*sp, interp, acc, &pool);
      const MigrateStats tail =
          exchange_particles(std::move(interior.res.emigrants), *sp, pusher,
                             migrate_block, grid, comm, &immigrants);
      compact_species(*sp, skin.dead, interior.dead, immigrants);
      for (const Pusher::Result* r : {&skin.res, &interior.res}) {
        st.pushed += r->pushed;
        st.crossings += r->crossings;
        st.absorbed += r->absorbed;
        st.reflected += r->reflected;
        st.refluxed += r->refluxed;
      }
      st.migrate.sent += m.sent + tail.sent;
      st.migrate.received += m.received + tail.received;
      st.migrate.absorbed += m.absorbed + tail.absorbed;
      st.migrate.rounds = std::max(st.migrate.rounds, m.rounds + tail.rounds);
    }
    acc.reduce();
    acc.unload(fields);
    for (Species* sp : species) accumulate_rho(*sp, fields);
    halo.reduce_sources(fields);
    solver.advance_b(fields, 0.5);
    solver.advance_e(fields);
    solver.advance_b(fields, 0.5);
    return st;
  }

  vmpi::Comm* comm;
  Pipeline pool;
  grid::LocalGrid grid;
  grid::FieldArray fields;
  grid::Halo halo;
  field::FieldSolver solver;
  InterpolatorArray interp;
  AccumulatorArray acc;
  Pusher pusher;

 private:
  Pic(grid::LocalGrid local, vmpi::Comm* c, const ParticleBcSpec& pbc,
      int pipelines)
      : comm(c),
        pool(pipelines),
        grid(std::move(local)),
        fields(grid),
        halo(grid, c),
        solver(grid, &halo),
        interp(grid),
        acc(grid, pipelines + (c != nullptr && c->size() > 1 ? 1 : 0)),
        pusher(grid, pbc) {
    solver.boundary().capture(fields);
  }
};

/// True when every interior J component matches bit-for-bit.
inline ::testing::AssertionResult j_identical(const grid::FieldArray& a,
                                              const grid::FieldArray& b) {
  const auto& g = a.grid();
  for (int k = 0; k <= g.nz() + 1; ++k)
    for (int j = 0; j <= g.ny() + 1; ++j)
      for (int i = 0; i <= g.nx() + 1; ++i) {
        if (a.jfx(i, j, k) != b.jfx(i, j, k) ||
            a.jfy(i, j, k) != b.jfy(i, j, k) ||
            a.jfz(i, j, k) != b.jfz(i, j, k))
          return ::testing::AssertionFailure()
                 << "J differs at (" << i << "," << j << "," << k << "): ("
                 << a.jfx(i, j, k) << "," << a.jfy(i, j, k) << ","
                 << a.jfz(i, j, k) << ") vs (" << b.jfx(i, j, k) << ","
                 << b.jfy(i, j, k) << "," << b.jfz(i, j, k) << ")";
      }
  return ::testing::AssertionSuccess();
}

/// True when every J component matches to `rel` times the grid-wide max
/// |J|. Rounding differences scale with the *deposit* magnitudes, so a
/// per-cell relative test would spuriously fail in near-cancellation cells
/// (counter-streaming currents summing to ~0).
inline ::testing::AssertionResult j_close(const grid::FieldArray& a,
                                          const grid::FieldArray& b,
                                          double rel) {
  const auto& g = a.grid();
  double max_abs = 0;
  for (int k = 0; k <= g.nz() + 1; ++k)
    for (int j = 0; j <= g.ny() + 1; ++j)
      for (int i = 0; i <= g.nx() + 1; ++i)
        max_abs = std::max({max_abs, std::abs(double(a.jfx(i, j, k))),
                            std::abs(double(a.jfy(i, j, k))),
                            std::abs(double(a.jfz(i, j, k)))});
  const double tol = rel * std::max(max_abs, 1e-12);
  for (int k = 0; k <= g.nz() + 1; ++k)
    for (int j = 0; j <= g.ny() + 1; ++j)
      for (int i = 0; i <= g.nx() + 1; ++i) {
        const double comps[3][2] = {{a.jfx(i, j, k), b.jfx(i, j, k)},
                                    {a.jfy(i, j, k), b.jfy(i, j, k)},
                                    {a.jfz(i, j, k), b.jfz(i, j, k)}};
        for (const auto& c : comps)
          if (std::abs(c[0] - c[1]) > tol)
            return ::testing::AssertionFailure()
                   << "J differs at (" << i << "," << j << "," << k
                   << "): " << c[0] << " vs " << c[1] << " (tol " << tol
                   << ")";
      }
  return ::testing::AssertionSuccess();
}

inline grid::GlobalGrid cube_grid(int n, double h = 0.5, double dt = 0) {
  grid::GlobalGrid g;
  g.nx = g.ny = g.nz = n;
  g.dx = g.dy = g.dz = h;
  g.dt = dt;
  return g;
}

}  // namespace minivpic::particles::testing
