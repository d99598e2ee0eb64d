// T2 — whole-step cost breakdown: where the time of a full PIC step goes
// (particle advance, sort, accumulator reduction, source reduction, field
// solve, migration, cleaning) for an LPI-style deck. The paper's claim that
// the inner loop dominates (0.488 Pflop/s inner vs 0.374 Pflop/s whole-code
// ~ 77%) should reproduce as a push fraction around 70-85%.
//
// Also sweeps the intra-rank pipeline count and the advance kernel
// (docs/KERNELS.md) of the particle advance:
//   --pipelines=N   run the breakdown at exactly N pipelines
//                   (default: sweep 1, 2, 4, ..., hardware threads)
//   --kernel=NAME   run at exactly one kernel: scalar|sse|avx2|avx512|auto
//                   (default: sweep scalar plus the widest available)
//   --steps=N       timed steps per configuration (default 100)
//   --sort-every=N  override the deck's bin-sort cadence (0 = never sort;
//                   default: the LPI deck's sort_every of 20) — the "sort"
//                   row and the push rate move together (docs/SORTING.md)
//   --json=PATH     machine-readable results: one record per swept
//                   (pipelines, kernel) point carrying the full telemetry
//                   metric catalogue (see docs/OBSERVABILITY.md) plus the
//                   sort_every the point ran at
//   --flight-recorder  attach an armed flight recorder (telemetry/
//                   recorder.hpp) to the timed run — the always-on
//                   overhead measurement quoted in docs/OBSERVABILITY.md
//                   compares this against a plain run
#include <fstream>
#include <iostream>
#include <memory>
#include <vector>

#include "perf/costs.hpp"
#include "sim/simulation.hpp"
#include "telemetry/json.hpp"
#include "telemetry/recorder.hpp"
#include "telemetry/sampler.hpp"
#include "util/cli.hpp"
#include "util/csv.hpp"
#include "util/error.hpp"
#include "util/pipeline.hpp"
#include "util/timer.hpp"

using namespace minivpic;

namespace {

sim::Deck breakdown_deck(int pipelines, particles::Kernel kernel,
                         int sort_every) {
  sim::LpiParams p;
  p.nx = 192;
  p.ny = p.nz = 2;
  p.dx = 0.25;
  p.ppc = 96;
  p.a0 = 0.1;
  p.vacuum_cells = 24;
  sim::Deck deck = sim::lpi_deck(p);
  deck.pipelines = pipelines;
  deck.kernel = kernel;
  if (sort_every >= 0) deck.sort_every = sort_every;
  return deck;
}

struct SweepPoint {
  int pipelines = 1;
  std::string kernel = "scalar";
  int sort_every = 20;
  double push_seconds = 0;
  double sort_seconds = 0;
  double reduce_seconds = 0;
  double step_seconds = 0;
  double push_rate = 0;  ///< particles/s inside the advance
  telemetry::StepSample sample;  ///< full derived metric set for --json
};

SweepPoint run_breakdown(int pipelines, particles::Kernel kernel,
                         int sort_every, int steps, bool print_table,
                         bool flight_recorder) {
  const int warmup = 10;
  const sim::Deck deck = breakdown_deck(pipelines, kernel, sort_every);
  {
    sim::Simulation warm(deck);
    warm.initialize();
    warm.run(warmup);  // let caches and particle lists settle
  }
  // fresh timers, same deck
  sim::Simulation timed(deck);
  // The overhead-measurement mode: an armed recorder on the timed run, the
  // dump discarded (the cost under test is record(), not dump()).
  std::unique_ptr<telemetry::Recorder> recorder;
  if (flight_recorder) {
    recorder = std::make_unique<telemetry::Recorder>("bench_breakdown.fdr");
    timed.set_recorder(recorder.get());
  }
  timed.initialize();
  const Timer wall;
  timed.run(steps);
  const double wall_seconds = wall.seconds();

  const auto& t = timed.timings();
  const double total = t.total_seconds();
  if (print_table) {
    Table table({"phase", "seconds", "% of step", "notes"});
    auto row = [&](const char* name, const Stopwatch& sw, const char* note) {
      table.add_row({std::string(name), sw.total_seconds(),
                     100.0 * sw.total_seconds() / total, std::string(note)});
    };
    const std::string sort_note =
        deck.sort_every > 0
            ? "in-place bin sort, every " + std::to_string(deck.sort_every) +
                  " steps"
            : "bin sort disabled (sort_every = 0)";
    row("particle advance", t.push, "the paper's 0.488 Pflop/s inner loop");
    row("interpolator load", t.interpolate, "per-cell field coefficients");
    row("migration", t.migrate, "inter-rank exchange (1 rank: bookkeeping)");
    row("sort", t.sort, sort_note.c_str());
    row("pipeline reduce", t.reduce, "fold per-pipeline accumulator blocks");
    row("source reduction", t.sources, "accumulator unload + halo fold");
    row("field solve", t.field, "B/E/B Yee update + ghost refresh");
    row("divergence clean", t.clean, "Marder passes, every 50 steps");
    table.add_row({std::string("TOTAL"), total, 100.0, std::string("")});
    table.print(std::cout, "T2: step cost breakdown (LPI deck, " +
                               std::to_string(steps) + " steps, " +
                               std::to_string(timed.pipelines()) +
                               " pipeline(s), " +
                               particles::kernel_name(timed.kernel()) +
                               " kernel)");

    // Rates come from the shared StepSampler derivations so this table, the
    // NDJSON stream, and run_deck agree by construction.
    const std::int64_t pushed = timed.particle_stats().pushed;
    std::cout << "\npush rate: "
              << telemetry::StepSampler::particles_per_second(
                     pushed, t.push.total_seconds()) /
                     1e6
              << " M particles/s; sustained (whole step): "
              << telemetry::StepSampler::push_gflops(pushed, total)
              << " Gflop/s s.p. on this host\n";
    std::cout << "inner-loop share of step: "
              << 100.0 * t.push.total_seconds() / total
              << "%  (paper: 0.374/0.488 = 77%)\n";
  }

  SweepPoint pt;
  pt.pipelines = timed.pipelines();
  pt.kernel = particles::kernel_name(timed.kernel());
  pt.sort_every = deck.sort_every;
  pt.push_seconds = t.push.total_seconds();
  pt.sort_seconds = t.sort.total_seconds();
  pt.reduce_seconds = t.reduce.total_seconds();
  pt.step_seconds = total;
  pt.push_rate = telemetry::StepSampler::particles_per_second(
      timed.particle_stats().pushed, t.push.total_seconds());
  pt.sample = telemetry::StepSampler::derive_total(timed, wall_seconds);
  return pt;
}

/// Machine-readable results: one record per swept pipeline count with the
/// full metric catalogue, plus enough provenance (steps, deck shape) to
/// compare runs.
void write_json(const std::string& path, int steps,
                const std::vector<SweepPoint>& sweep) {
  telemetry::Json points = telemetry::Json::array();
  for (const SweepPoint& pt : sweep) {
    telemetry::Json metrics = telemetry::Json::object();
    for (const telemetry::ScalarMetric& m : pt.sample.scalars()) {
      telemetry::Json entry = telemetry::Json::object();
      entry.set("value", telemetry::Json::number(m.value));
      entry.set("unit", telemetry::Json::string(m.unit));
      metrics.set(m.name, std::move(entry));
    }
    telemetry::Json rec = telemetry::Json::object();
    rec.set("pipelines", telemetry::Json::number(std::int64_t{pt.pipelines}));
    rec.set("kernel", telemetry::Json::string(pt.kernel));
    rec.set("sort_every", telemetry::Json::number(std::int64_t{pt.sort_every}));
    rec.set("metrics", std::move(metrics));
    points.push_back(std::move(rec));
  }
  telemetry::Json doc = telemetry::Json::object();
  doc.set("bench", telemetry::Json::string("bench_step_breakdown"));
  doc.set("steps", telemetry::Json::number(std::int64_t{steps}));
  doc.set("points", std::move(points));
  std::ofstream os(path, std::ios::trunc);
  MV_REQUIRE(os.good(), "cannot open --json file: " << path);
  os << doc.dump() << "\n";
  std::cout << "\nJSON results written: " << path << "\n";
}

}  // namespace

int main(int argc, char** argv) try {
  Args args(argc, argv);
  if (args.has("help")) {
    std::cout << "usage: bench_step_breakdown [--pipelines=N] [--kernel=NAME] "
                 "[--steps=N] [--sort-every=N]\n"
                 "       [--json=PATH] [--flight-recorder]\n";
    return 0;
  }
  args.check_known(
      {"pipelines", "kernel", "steps", "sort-every", "json", "flight-recorder"});
  const bool flight_recorder = args.get_bool("flight-recorder", false);
  const int steps = int(args.get_int("steps", 100));
  // -1 = keep the deck's own cadence; 0 = never sort.
  const int sort_every = int(args.get_int("sort-every", -1));
  MV_REQUIRE(sort_every >= -1, "--sort-every must be >= 0");

  std::vector<int> counts;
  if (args.has("pipelines")) {
    counts = {Pipeline::resolve(int(args.get_int("pipelines", 0)))};
  } else {
    const int hw = Pipeline::hardware_pipelines();
    for (int n = 1; n < hw; n *= 2) counts.push_back(n);
    counts.push_back(hw);
  }

  // Kernel axis: one kernel when pinned, else the scalar baseline plus the
  // widest this host runs (when they differ).
  std::vector<particles::Kernel> kernels;
  if (args.has("kernel")) {
    kernels = {particles::resolve_kernel(
        particles::parse_kernel(args.get("kernel", "auto")))};
  } else {
    kernels = {particles::Kernel::kScalar};
    const particles::Kernel widest =
        particles::resolve_kernel(particles::Kernel::kAuto);
    if (widest != particles::Kernel::kScalar) kernels.push_back(widest);
  }

  // Detailed breakdown at the first requested point; sweep summary after.
  std::vector<SweepPoint> sweep;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    for (std::size_t k = 0; k < kernels.size(); ++k) {
      sweep.push_back(run_breakdown(counts[i], kernels[k], sort_every, steps,
                                    i == 0 && k == 0, flight_recorder));
    }
  }

  if (sweep.size() > 1) {
    std::cout << "\n";
    Table table({"pipelines", "kernel", "push s", "sort s", "reduce s",
                 "step s", "Mpart/s", "push speedup"});
    for (const SweepPoint& pt : sweep) {
      table.add_row({(long long)pt.pipelines, pt.kernel, pt.push_seconds,
                     pt.sort_seconds, pt.reduce_seconds, pt.step_seconds,
                     pt.push_rate / 1e6,
                     sweep[0].push_seconds / pt.push_seconds});
    }
    table.print(std::cout,
                "sweep: particle advance vs intra-rank pipelines x kernel "
                "(speedup vs the first row)");
  }
  if (args.has("json")) write_json(args.get("json", ""), steps, sweep);
  return 0;
} catch (const std::exception& e) {
  std::cerr << "bench_step_breakdown: " << e.what() << "\n";
  return 1;
}
