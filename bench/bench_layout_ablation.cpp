// A2 — ablation: VPIC's data layout versus the conventional one.
// Same physics work, two organizations:
//   * minivpic core: 32-byte s.p. particles with cell index + offsets,
//     cached 80-byte per-cell interpolator, per-cell accumulator;
//   * baseline: 56-byte d.p. AoS particles with global coordinates, direct
//     staggered gather from the mesh per particle, CIC scatter.
// The rate gap is the paper's design argument in miniature. The minivpic
// side times the step loop's advance: advance_skin (a no-op on one rank) +
// advance_interior + compact_species.
#include <benchmark/benchmark.h>

#include <cmath>

#include "baseline/baseline.hpp"
#include "particles/loader.hpp"
#include "particles/migrate.hpp"
#include "particles/push.hpp"

using namespace minivpic;

namespace {

grid::GlobalGrid make_grid(int cells) {
  grid::GlobalGrid g;
  g.nx = g.ny = g.nz = cells;
  g.dx = g.dy = g.dz = 0.5;
  return g;
}

void fill_fields(grid::FieldArray& f, int cells) {
  for (int k = 0; k <= cells + 1; ++k)
    for (int j = 0; j <= cells + 1; ++j)
      for (int i = 0; i <= cells + 1; ++i) {
        f.ey(i, j, k) = 0.01f * float(std::sin(0.3 * i));
        f.cbz(i, j, k) = 0.02f * float(std::cos(0.2 * j));
      }
}

void BM_VpicLayout(benchmark::State& state) {
  const int cells = int(state.range(0));
  const int ppc = int(state.range(1));
  const grid::LocalGrid g(make_grid(cells));
  grid::FieldArray f(g);
  fill_fields(f, cells);
  particles::InterpolatorArray interp(g);
  interp.load(f);
  particles::AccumulatorArray acc(g);
  particles::Pusher pusher(g, particles::periodic_particles());
  particles::Species sp("e", -1.0, 1.0);
  particles::LoadConfig cfg;
  cfg.ppc = ppc;
  cfg.uth = 0.05;
  particles::load_uniform(sp, g, cfg);
  sp.sort(g);

  std::int64_t pushed = 0;
  for (auto _ : state) {
    acc.clear();
    const particles::Pusher::Pass skin = pusher.advance_skin(sp, interp, acc);
    const particles::Pusher::Pass interior =
        pusher.advance_interior(sp, interp, acc);
    particles::compact_species(sp, skin.dead, interior.dead, {});
    pushed += skin.res.pushed + interior.res.pushed;
  }
  state.counters["particles/s"] =
      benchmark::Counter(double(pushed), benchmark::Counter::kIsRate);
  state.counters["bytes/particle"] = 32.0;
}
BENCHMARK(BM_VpicLayout)->Args({24, 16})->Args({32, 32})->Unit(benchmark::kMillisecond);

void BM_ConventionalLayout(benchmark::State& state) {
  const int cells = int(state.range(0));
  const int ppc = int(state.range(1));
  const grid::LocalGrid g(make_grid(cells));
  grid::FieldArray f(g);
  fill_fields(f, cells);
  baseline::BaselinePic pic(g, -1.0, 1.0);
  pic.load_uniform(ppc, 1.0, 0.05, 7);

  std::int64_t pushed = 0;
  for (auto _ : state) {
    f.clear_sources();
    pic.push(f);
    pushed += std::int64_t(pic.size());
  }
  state.counters["particles/s"] =
      benchmark::Counter(double(pushed), benchmark::Counter::kIsRate);
  state.counters["bytes/particle"] = double(sizeof(baseline::ParticleD));
}
BENCHMARK(BM_ConventionalLayout)
    ->Args({24, 16})
    ->Args({32, 32})
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
