// A1 — ablation: the particle sort. VPIC periodically counting-sorts
// particles by cell so the inner loop streams the interpolator and
// accumulator arrays instead of thrashing them. Compares the push on a
// sorted list against the same particles in shuffled (worst-case) order —
// per advance kernel, because the SIMD gathers are exactly what decays
// with disorder (docs/SORTING.md) — and shows the in-place sort's own cost
// for amortization. The timed push is the step loop's advance:
// advance_skin (a no-op on one rank) + advance_interior + compact_species.
//
//   --kernel=NAME   pin to one kernel: scalar|sse|avx2|avx512|auto
//                   (default: every kernel this host can run)
//   --json=PATH     machine-readable results; shorthand for
//                   --benchmark_out=PATH --benchmark_out_format=json
#include <benchmark/benchmark.h>

#include <cmath>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "particles/loader.hpp"
#include "particles/migrate.hpp"
#include "particles/push.hpp"
#include "util/rng.hpp"

using namespace minivpic;
using namespace minivpic::particles;

namespace {

grid::GlobalGrid make_grid(int cells) {
  grid::GlobalGrid g;
  g.nx = g.ny = g.nz = cells;
  g.dx = g.dy = g.dz = 0.5;
  return g;
}

struct Fixture {
  Fixture(int cells, int ppc, bool shuffled, Kernel kernel = Kernel::kScalar)
      : grid(make_grid(cells)),
        fields(grid),
        interp(grid),
        acc(grid),
        pusher(grid, periodic_particles()),
        sp("e", -1.0, 1.0) {
    pusher.set_kernel(kernel);
    for (int k = 0; k <= cells + 1; ++k)
      for (int j = 0; j <= cells + 1; ++j)
        for (int i = 0; i <= cells + 1; ++i)
          fields.ey(i, j, k) = 0.01f * float(std::sin(0.3 * i));
    interp.load(fields);
    LoadConfig cfg;
    cfg.ppc = ppc;
    cfg.uth = 0.05;
    // load_uniform already emits ascending voxel order (the sorted case);
    // the shuffled variant is the worst-case order sorting exists to undo.
    load_uniform(sp, grid, cfg);
    if (shuffled) shuffle(sp);
  }

  static void shuffle(Species& s, std::uint64_t seed = 11) {
    Rng rng(seed);
    for (std::size_t n = s.size(); n > 1; --n)
      std::swap(s[n - 1], s[std::size_t(rng.uniform_u64(n))]);
  }

  grid::LocalGrid grid;
  grid::FieldArray fields;
  InterpolatorArray interp;
  AccumulatorArray acc;
  Pusher pusher;
  Species sp;
};

void push_loop(benchmark::State& state, int cells, int ppc, bool shuffled,
               Kernel kernel) {
  Fixture fx(cells, ppc, shuffled, kernel);
  std::int64_t pushed = 0;
  for (auto _ : state) {
    fx.acc.clear();
    const Pusher::Pass skin = fx.pusher.advance_skin(fx.sp, fx.interp, fx.acc);
    const Pusher::Pass interior =
        fx.pusher.advance_interior(fx.sp, fx.interp, fx.acc);
    compact_species(fx.sp, skin.dead, interior.dead, {});
    pushed += skin.res.pushed + interior.res.pushed;
  }
  state.counters["particles/s"] =
      benchmark::Counter(double(pushed), benchmark::Counter::kIsRate);
  state.counters["sortedness"] = fx.sp.sortedness();
}

void BM_SortCost(benchmark::State& state) {
  Fixture fx(int(state.range(0)), 8, true);
  for (auto _ : state) {
    state.PauseTiming();
    Fixture::shuffle(fx.sp, 13);
    state.ResumeTiming();
    fx.sp.sort(fx.grid);
  }
  state.counters["particles/s"] = benchmark::Counter(
      double(state.iterations()) * double(fx.sp.size()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SortCost)->Arg(32)->Arg(48)->Unit(benchmark::kMillisecond);

void register_push_benchmarks(const std::vector<Kernel>& kernels) {
  struct Case {
    int cells, ppc;
  };
  // Grid large enough that the interpolator array falls out of cache when
  // access order is random — the case the sort exists for.
  const Case cases[] = {{32, 8}, {48, 8}};
  for (const Case& c : cases) {
    for (Kernel k : kernels) {
      for (const bool shuffled : {false, true}) {
        const std::string name =
            std::string(shuffled ? "BM_PushShuffled/" : "BM_PushSorted/") +
            std::to_string(c.cells) + "/" + std::to_string(c.ppc) +
            "/kernel:" + kernel_name(k);
        benchmark::RegisterBenchmark(name.c_str(), push_loop, c.cells, c.ppc,
                                     shuffled, k)
            ->Unit(benchmark::kMillisecond);
      }
    }
  }
}

void print_help() {
  std::cout << "usage: bench_sort_ablation [--kernel=NAME] [--json=PATH]\n"
               "       [google-benchmark flags]\n";
  benchmark::PrintDefaultHelp();
}

}  // namespace

int main(int argc, char** argv) try {
  std::vector<Kernel> kernels;
  std::vector<std::string> extra;
  std::vector<char*> bargv;
  for (int i = 0; i < argc; ++i) {
    const char* a = argv[i];
    if (std::strncmp(a, "--kernel=", 9) == 0) {
      kernels = {resolve_kernel(parse_kernel(a + 9))};
    } else if (std::strcmp(a, "--kernel") == 0 && i + 1 < argc) {
      kernels = {resolve_kernel(parse_kernel(argv[++i]))};
    } else if (std::strncmp(a, "--json=", 7) == 0) {
      extra.push_back(std::string("--benchmark_out=") + (a + 7));
      extra.push_back("--benchmark_out_format=json");
    } else {
      bargv.push_back(argv[i]);
    }
  }
  for (std::string& s : extra) bargv.push_back(s.data());
  if (kernels.empty()) kernels = available_kernels();
  {
    std::string names;
    for (Kernel k : kernels)
      names += (names.empty() ? "" : ",") + std::string(kernel_name(k));
    benchmark::AddCustomContext("kernels", names);
  }
  register_push_benchmarks(kernels);
  int bargc = int(bargv.size());
  benchmark::Initialize(&bargc, bargv.data(), print_help);
  if (benchmark::ReportUnrecognizedArguments(bargc, bargv.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
} catch (const std::exception& e) {
  std::cerr << "bench_sort_ablation: " << e.what() << "\n";
  return 1;
}
