// lpi_pipelines / lpi_ranks: the flagship LPI deck stepped in repeated
// fixed-length runs. Every run is one operation: it sets up a fresh
// Simulation, times each step, then passes the correctness gates.
//
// Untraced runs give the end-to-end metrics. A traced run adds a 1x1
// baseline of the same deck and seed, alternating untraced and traced runs
// (their rate ratio is the tracing overhead; traced runs record per-rank
// sim.step spans and install the benchmark's vmpi comm hook), a pool probe
// at 1 rank x N pipelines, and on lpi_ranks the vmpi p2p/allreduce probes.
#include <array>
#include <atomic>
#include <cmath>
#include <cstring>
#include <sstream>
#include <thread>

#include "bench.hpp"
#include "sim/simulation.hpp"
#include "util/pipeline.hpp"
#include "vmpi/config.hpp"
#include "vmpi/runtime.hpp"

namespace perfbench {

namespace vmpi = minivpic::vmpi;
using minivpic::Pipeline;

namespace {

/// Gauss-law residual gate. The load leaves an RMS residual of particle
/// noise (about 0.05 on the LPI deck); charge-conserving deposition keeps
/// it constant and the Marder passes shrink it (to about 0.003 after 1000
/// steps). A run fails when the final residual exceeds the post-set-up one
/// by more than this relative tolerance.
constexpr double kGaussGrowth = 1e-3;

constexpr std::array<const char*, 8> kPhases = {
    "interpolate", "push", "migrate", "sort",
    "reduce",      "sources", "field", "clean"};
using Phases = std::array<double, kPhases.size()>;
constexpr std::size_t kPush = 1, kMigrate = 2;  // indices into kPhases

bool same_bits(double a, double b) {
  std::uint64_t x = 0, y = 0;
  std::memcpy(&x, &a, sizeof x);
  std::memcpy(&y, &b, sizeof y);
  return x == y;
}

Phases phase_seconds(const sim::StepTimings& t) {
  return {t.interpolate.total_seconds(), t.push.total_seconds(),
          t.migrate.total_seconds(),     t.sort.total_seconds(),
          t.reduce.total_seconds(),      t.sources.total_seconds(),
          t.field.total_seconds(),       t.clean.total_seconds()};
}

/// One rank's deltas over a run's timed steps.
struct RankRun {
  Phases phases{};
  sim::ParticleStats stats{};
  double hidden_s = 0, exposed_s = 0;
  std::vector<double> busy_s;  ///< per pipeline
  std::int64_t electrons0 = 0, electrons1 = 0;
};

struct Run {
  double setup_s = 0;
  double loop_s = 0;           ///< wall of the stepping loop, all ranks
  double cpu_s = 0;            ///< process CPU seconds over the loop
  std::vector<double> step_s;  ///< rank 0, one per step
  std::vector<RankRun> ranks;
  double energy = 0, kinetic = 0;
  double gauss0 = 0, gauss = 0;  ///< RMS Gauss residual after set-up / at end
  std::int64_t msgs = 0, bytes = 0;
  double rss_mb = 0;  ///< resident set size once set-up is done

  std::int64_t pushes() const {
    std::int64_t n = 0;
    for (const RankRun& r : ranks) n += r.stats.pushed;
    return n;
  }
};

/// Comm-hook counters: sends per rank, only while that rank steps.
struct CommCounter {
  explicit CommCounter(int ranks) : on(ranks), msgs(ranks), bytes(ranks) {}
  std::vector<std::atomic<bool>> on;
  std::vector<std::atomic<std::int64_t>> msgs, bytes;
};

void count_sends(void* ctx, int rank, int event, int /*peer*/, int /*detail*/,
                 unsigned long long bytes) {
  auto* c = static_cast<CommCounter*>(ctx);
  if (event != vmpi::kCommHookSend || rank < 0 ||
      rank >= int(c->on.size()) || !c->on[rank].load(std::memory_order_relaxed))
    return;
  c->msgs[rank].fetch_add(1, std::memory_order_relaxed);
  c->bytes[rank].fetch_add(std::int64_t(bytes), std::memory_order_relaxed);
}

sim::ParticleStats stats_delta(const sim::ParticleStats& a,
                               const sim::ParticleStats& b) {
  sim::ParticleStats d;
  d.pushed = b.pushed - a.pushed;
  d.crossings = b.crossings - a.crossings;
  d.absorbed = b.absorbed - a.absorbed;
  d.migrated = b.migrated - a.migrated;
  d.sorted = b.sorted - a.sorted;
  return d;
}

/// Sets up, steps and checks one run of `steps` steps on `ranks` ranks.
/// With `hook` the world counts every send made while the ranks step.
Run run_once(const sim::Deck& deck, int ranks, int steps, Spans& spans,
             std::int64_t run_id, bool hook) {
  Run run;
  run.ranks.resize(std::size_t(ranks));
  run.step_s.reserve(std::size_t(steps));
  CommCounter counter(ranks);

  auto body = [&](vmpi::Comm* comm) {
    const int r = comm != nullptr ? comm->rank() : 0;
    auto barrier = [comm] {
      if (comm != nullptr) comm->barrier();
    };
    const double t0 = now_s();
    const vmpi::CartTopology topo(
        {ranks, 1, 1},
        {deck.grid.boundary[0] == minivpic::grid::BoundaryKind::kPeriodic,
         deck.grid.boundary[2] == minivpic::grid::BoundaryKind::kPeriodic,
         deck.grid.boundary[4] == minivpic::grid::BoundaryKind::kPeriodic});
    sim::Simulation s(deck, comm, comm != nullptr ? &topo : nullptr);
    s.initialize();
    barrier();
    if (r == 0) {
      run.setup_s = now_s() - t0;
      run.rss_mb = rss_mb();
      spans.add("bench.setup", run_id, r, t0, now_s());
    }

    const double gauss0 = s.gauss_error();  // collective
    if (r == 0) run.gauss0 = gauss0;
    RankRun& rr = run.ranks[std::size_t(r)];
    const minivpic::particles::Species* electrons = s.find_species("electron");
    MV_REQUIRE(electrons != nullptr, "deck has no electron species");
    rr.electrons0 = std::int64_t(electrons->size());
    const Phases ph0 = phase_seconds(s.timings());
    const sim::ParticleStats st0 = s.particle_stats();
    const sim::OverlapStats ov0 = s.overlap_stats();
    const std::vector<double> busy0 = s.pipeline_busy_seconds();

    barrier();
    const double l0 = now_s();
    const double c0 = r == 0 ? process_cpu_seconds() : 0;
    counter.on[std::size_t(r)] = true;
    for (int i = 0; i < steps; ++i) {
      const double a = now_s();
      s.step();
      const double b = now_s();
      if (r == 0) run.step_s.push_back(b - a);
      spans.add("sim.step", i, r, a, b);
    }
    counter.on[std::size_t(r)] = false;
    barrier();
    if (r == 0) {
      run.loop_s = now_s() - l0;
      run.cpu_s = process_cpu_seconds() - c0;
    }

    const Phases ph1 = phase_seconds(s.timings());
    for (std::size_t p = 0; p < kPhases.size(); ++p)
      rr.phases[p] = ph1[p] - ph0[p];
    rr.stats = stats_delta(st0, s.particle_stats());
    rr.hidden_s = s.overlap_stats().hidden_seconds - ov0.hidden_seconds;
    rr.exposed_s = s.overlap_stats().exposed_seconds - ov0.exposed_seconds;
    const std::vector<double>& busy1 = s.pipeline_busy_seconds();
    rr.busy_s.resize(busy1.size());
    for (std::size_t p = 0; p < busy1.size(); ++p)
      rr.busy_s[p] = busy1[p] - (p < busy0.size() ? busy0[p] : 0.0);
    rr.electrons1 = std::int64_t(electrons->size());

    const sim::EnergyReport en = s.energies();  // collective
    const double gauss = s.gauss_error();       // collective
    if (r == 0) {
      run.energy = en.total;
      run.kinetic = en.kinetic_total;
      run.gauss = gauss;
    }
  };

  if (ranks == 1) {
    body(nullptr);
  } else {
    vmpi::WorldConfig wc;
    if (hook) {
      wc.comm_hook = count_sends;
      wc.comm_hook_ctx = &counter;
    }
    vmpi::run(ranks, [&](vmpi::Comm& comm) { body(&comm); }, wc);
  }
  for (int r = 0; r < ranks; ++r) {
    run.msgs += counter.msgs[std::size_t(r)].load();
    run.bytes += counter.bytes[std::size_t(r)].load();
  }
  return run;
}

/// The per-run correctness gates; a failing run counts as one failure.
void check_run(const Run& run, const Run& reference, Outcome& out) {
  std::int64_t e0 = 0, e1 = 0, absorbed = 0;
  for (const RankRun& r : run.ranks) {
    e0 += r.electrons0;
    e1 += r.electrons1;
    absorbed += r.stats.absorbed;
  }
  std::ostringstream why;
  if (!std::isfinite(run.energy) || !std::isfinite(run.kinetic))
    why << "non-finite final energy; ";
  if (!same_bits(run.energy, reference.energy) ||
      !same_bits(run.kinetic, reference.kinetic))
    why << "final energy " << run.energy << " differs from the first run's "
        << reference.energy << "; ";
  if (e0 != e1 + absorbed)
    why << "electrons " << e0 << " != " << e1 << " final + " << absorbed
        << " absorbed; ";
  if (!(run.gauss <= run.gauss0 * (1 + kGaussGrowth)))
    why << "Gauss residual grew from " << run.gauss0 << " to " << run.gauss
        << "; ";
  ++out.attempted;
  if (!why.str().empty()) out.fail(why.str());
}

/// Pipelines split the particle list and fold private current blocks in a
/// fixed order, so N pipelines track 1 pipeline with exact particle
/// counters and energies equal to float rounding (docs/PERFORMANCE.md) --
/// not bit for bit. The field feedback amplifies that rounding (about 1e-4
/// relative after 1000 steps), so the comparison runs a short horizon with
/// the tolerances of the pipeline tests.
constexpr int kPipelineCheckSteps = 10;
constexpr double kKineticRel = 1e-6, kFieldRel = 1e-4;

void check_pipelines(const sim::Deck& serial, const sim::Deck& piped,
                     Outcome& out) {
  Spans off(false);
  const Run a = run_once(serial, 1, kPipelineCheckSteps, off, -1, false);
  const Run b = run_once(piped, 1, kPipelineCheckSteps, off, -1, false);
  const sim::ParticleStats& sa = a.ranks[0].stats;
  const sim::ParticleStats& sb = b.ranks[0].stats;
  const double field_a = a.energy - a.kinetic, field_b = b.energy - b.kinetic;
  std::ostringstream why;
  if (sa.pushed != sb.pushed || sa.crossings != sb.crossings ||
      sa.absorbed != sb.absorbed)
    why << "particle counters differ between 1 and " << piped.pipelines
        << " pipelines; ";
  if (!(std::abs(b.kinetic / a.kinetic - 1) <= kKineticRel) ||
      !(std::abs(field_b / field_a - 1) <= kFieldRel))
    why << "energies differ beyond rounding between 1 and " << piped.pipelines
        << " pipelines: kinetic " << a.kinetic << " vs " << b.kinetic
        << ", field " << field_a << " vs " << field_b << "; ";
  ++out.attempted;
  if (!why.str().empty()) out.fail(why.str());
}

/// Runs whole runs until `budget` seconds have passed (at least `min_runs`).
/// With `traced`, every odd run records spans into it and counts messages,
/// so host drift during the window lands on traced and untraced runs alike.
std::vector<Run> measure(const sim::Deck& deck, int ranks, int steps,
                         double budget, int min_runs,
                         Spans* traced = nullptr) {
  Spans off(false);
  std::vector<Run> runs;
  const double start = now_s();
  while (int(runs.size()) < min_runs || now_s() - start < budget) {
    // A fresh thread per run re-draws the scheduler's thread placement,
    // which the step rate depends on; on one long-lived thread every run
    // of a process inherits the same placement, and processes differ.
    const bool trace = traced != nullptr && runs.size() % 2 == 1;
    Run run;
    std::exception_ptr error;
    std::thread t([&] {
      try {
        run = run_once(deck, ranks, steps, trace ? *traced : off,
                       std::int64_t(runs.size()), trace);
      } catch (...) {
        error = std::current_exception();
      }
    });
    t.join();
    if (error) std::rethrow_exception(error);
    runs.push_back(std::move(run));
  }
  return runs;
}

/// Median over runs of electron pushes per second of stepping wall.
double push_rate(const std::vector<Run>& runs) {
  std::vector<double> v;
  for (const Run& r : runs) v.push_back(double(r.pushes()) / r.loop_s);
  return median(v);
}

double probe_dispatch_us(int pipelines, int reps, Spans& spans) {
  Pipeline pool(pipelines);
  const auto noop = [](int) {};
  for (int i = 0; i < 100; ++i) pool.dispatch(noop);
  std::vector<double> us;
  const double t0 = now_s();
  for (int i = 0; i < reps; ++i) {
    const double a = now_s();
    pool.dispatch(noop);
    us.push_back((now_s() - a) * 1e6);
  }
  spans.add("probe.dispatch", 0, 0, t0, now_s());
  return median(us);
}

/// The pipeline layer, measured alike on every LPI workload: one run at
/// 1 rank x N pipelines against the 1x1 baseline, the N-vs-1 correctness
/// check and an empty-dispatch probe at N.
void add_pool_layer(const sim::Deck& serial, const Run& baseline,
                    const sim::Deck& pooled, int steps, int dispatch_reps,
                    Spans& spans, Outcome& out) {
  check_pipelines(serial, pooled, out);
  Spans off(false);
  const Run run = run_once(pooled, 1, steps, off, -1, false);
  const RankRun& rr = run.ranks[0];
  double sum = 0, mx = 0;
  for (double b : rr.busy_s) {
    sum += b;
    mx = std::max(mx, b);
  }
  const double push = rr.phases[kPush];
  out.add("util.pipeline.speedup", baseline.ranks[0].phases[kPush] / push,
          "ratio");
  out.add("util.pipeline.imbalance", mx * double(rr.busy_s.size()) / sum,
          "ratio");
  out.add("util.pipeline.occupancy", sum / (double(pooled.pipelines) * push),
          "ratio");
  out.add("util.dispatch_us",
          probe_dispatch_us(pooled.pipelines, dispatch_reps, spans), "us");
}

/// Median one-way rank 0 <-> 1 latency and allreduce latency at `ranks`.
std::pair<double, double> probe_vmpi_us(int ranks, int reps, Spans& spans) {
  std::vector<double> p2p, allreduce;
  const double t0 = now_s();
  vmpi::run(ranks, [&](vmpi::Comm& comm) {
    const int r = comm.rank();
    for (int i = 0; i < reps; ++i) {
      if (r == 0) {
        const double a = now_s();
        comm.send_value(1, 7, i);
        (void)comm.recv_value<int>(1, 7);
        p2p.push_back((now_s() - a) * 0.5e6);
      } else if (r == 1) {
        comm.send_value(0, 7, comm.recv_value<int>(0, 7));
      }
    }
    comm.barrier();
    for (int i = 0; i < reps; ++i) {
      const double a = now_s();
      (void)comm.allreduce_value(double(i), vmpi::Op::kSum);
      if (r == 0) allreduce.push_back((now_s() - a) * 1e6);
    }
  });
  spans.add("probe.vmpi", 0, 0, t0, now_s());
  return {median(p2p), median(allreduce)};
}

/// Largest rank count <= cpus that divides the x extent evenly.
int rank_count(const sim::Deck& deck, int cpus) {
  int r = std::max(1, cpus);
  while (r > 1 && deck.grid.nx % r != 0) --r;
  return r;
}

}  // namespace

Outcome run_lpi(const Options& opt, bool ranks_mode) {
  const int cpus = allowed_cpus();
  const int steps = opt.toy ? 30 : 1000;
  const int min_runs = opt.toy ? 2 : 3;
  const int pipelines = ranks_mode ? 1 : cpus;
  const sim::Deck deck =
      generated_deck(opt, {"control.pipelines=" + std::to_string(pipelines)})
          .build();
  const int ranks = ranks_mode ? rank_count(deck, cpus) : 1;

  Outcome out;
  Spans off(false);
  // Untimed warm-up: the first runs after an idle spell step up to 3x
  // slower while the host wakes idle CPUs (seen on a 4-vCPU VM). Its first
  // run is the bit-identity reference for every later run.
  const std::vector<Run> warm =
      measure(deck, ranks, steps, opt.toy ? 0.0 : 2.0, 1);
  const Run& reference = warm.front();
  for (const Run& r : warm) check_run(r, reference, out);

  if (!opt.trace) {
    const std::vector<Run> runs =
        measure(deck, ranks, steps, opt.seconds, min_runs);
    std::vector<double> p50, p90, setup, result;
    for (const Run& r : runs) {
      check_run(r, reference, out);
      p50.push_back(quantile(r.step_s, 0.50) * 1e3);
      p90.push_back(quantile(r.step_s, 0.90) * 1e3);
      setup.push_back(r.setup_s);
      result.push_back(r.setup_s + r.loop_s);
    }
    out.add("throughput", push_rate(runs), "1/s");
    out.add("latency_ms_p50", median(p50), "ms");
    out.add("latency_ms_p90", median(p90), "ms");
    out.add("time_to_result_s", median(result), "s");
    out.add("setup_s", median(setup), "s");
    // Read when the process's first set-up was done, as in service_mix.
    out.add("rss_mb", reference.rss_mb, "MB");
    return out;
  }

  // Traced run: baseline, alternating untraced/traced runs, probe.
  Spans spans(true);
  const sim::Deck serial =
      generated_deck(opt, {"control.pipelines=1"}).build();
  const Run baseline = run_once(serial, 1, steps, off, -1, false);
  const std::vector<Run> runs =
      measure(deck, ranks, steps, opt.seconds, 2 * min_runs, &spans);
  std::vector<Run> plain, traced;
  for (std::size_t i = 0; i < runs.size(); ++i) {
    check_run(runs[i], reference, out);
    (i % 2 == 1 ? traced : plain).push_back(runs[i]);
  }

  const double nsteps = double(traced.size()) * steps;
  const auto nr = std::size_t(ranks);
  std::vector<Phases> per_rank(nr, Phases{});
  std::vector<double> hidden(nr), exposed(nr);
  sim::ParticleStats tot;
  double loop_s = 0, cpu_s = 0;
  std::int64_t msgs = 0, bytes = 0;
  for (const Run& run : traced) {
    loop_s += run.loop_s;
    cpu_s += run.cpu_s;
    msgs += run.msgs;
    bytes += run.bytes;
    for (std::size_t r = 0; r < nr; ++r) {
      const RankRun& rr = run.ranks[r];
      for (std::size_t p = 0; p < kPhases.size(); ++p)
        per_rank[r][p] += rr.phases[p];
      hidden[r] += rr.hidden_s;
      exposed[r] += rr.exposed_s;
      tot.pushed += rr.stats.pushed;
      tot.crossings += rr.stats.crossings;
      tot.migrated += rr.stats.migrated;
      tot.sorted += rr.stats.sorted;
    }
  }
  Phases phase_max{};
  std::vector<double> rank_work(nr);  // phase time excluding migrate
  double rank_sum = 0, push_sum = 0;
  for (std::size_t r = 0; r < nr; ++r)
    for (std::size_t p = 0; p < kPhases.size(); ++p) {
      phase_max[p] = std::max(phase_max[p], per_rank[r][p]);
      rank_sum += per_rank[r][p];
      if (p == kPush) push_sum += per_rank[r][p];
      if (p != kMigrate) rank_work[r] += per_rank[r][p];
    }
  for (std::size_t p = 0; p < kPhases.size(); ++p)
    out.add(std::string("sim.") + kPhases[p] + ".ms_per_step",
            phase_max[p] / nsteps * 1e3, "ms");

  // Rank 0's phases against its own sim.step spans: the remainder is step
  // time no phase stopwatch covers (plus the span's own cost).
  double rank0_phases = 0;
  for (double v : per_rank[0]) rank0_phases += v;
  double span_s = 0;
  for (double d : spans.durations("sim.step", 0)) span_s += d;
  const double traced_rate = push_rate(traced);
  const double plain_rate = push_rate(plain);
  const double base_step = baseline.loop_s / steps;
  double step_s = 0;
  for (const Run& r : traced) step_s += r.loop_s;
  step_s /= nsteps;

  out.add("sim.step_ms", span_s / nsteps * 1e3, "ms");
  // The p99 step (10 steps beyond it per run) is bimodal on a host with
  // slow spells -- either a sort step or a stall -- so it is a layer
  // reading here, from the untraced runs, not a bounded end-to-end metric.
  std::vector<double> p99;
  for (const Run& r : plain) p99.push_back(quantile(r.step_s, 0.99) * 1e3);
  out.add("sim.step_ms_p99", median(p99), "ms");
  out.add("sim.unattributed_ms_per_step", (span_s - rank0_phases) / nsteps * 1e3,
          "ms");
  out.add("sim.push_share", rank_sum > 0 ? push_sum / rank_sum : 0, "ratio");
  out.add("sim.parallel_efficiency",
          base_step / (step_s * double(ranks * pipelines)), "ratio");
  out.add("sim.rank_skew",
          *std::max_element(rank_work.begin(), rank_work.end()) /
              *std::min_element(rank_work.begin(), rank_work.end()),
          "ratio");
  double hid = 0, exp = 0;
  for (std::size_t r = 0; r < nr; ++r) {
    hid += hidden[r] / double(nr);
    exp += exposed[r] / double(nr);
  }
  out.add("sim.overlap.hidden_ms_per_step", hid / nsteps * 1e3, "ms");
  out.add("sim.overlap.exposed_ms_per_step", exp / nsteps * 1e3, "ms");

  out.add("particles.push_rate",
          phase_max[kPush] > 0 ? double(tot.pushed) / phase_max[kPush] : 0, "1/s");
  out.add("particles.crossings_per_push",
          tot.pushed > 0 ? double(tot.crossings) / double(tot.pushed) : 0,
          "ratio");
  out.add("particles.sorted_per_step", double(tot.sorted) / nsteps, "count");
  out.add("particles.migrated_per_step", double(tot.migrated) / nsteps,
          "count");

  add_pool_layer(serial, baseline,
                 ranks_mode ? generated_deck(opt, {"control.pipelines=" +
                                                   std::to_string(cpus)})
                                  .build()
                            : deck,
                 steps, opt.toy ? 200 : 4000, spans, out);
  out.add("util.cpu_share", cpu_s / (loop_s * double(ranks * pipelines)),
          "ratio");

  out.add("vmpi.msgs_per_step", double(msgs) / nsteps, "count");
  out.add("vmpi.bytes_per_step", double(bytes) / nsteps, "bytes");
  const auto [p2p, allreduce] =
      ranks_mode && ranks > 1
          ? probe_vmpi_us(ranks, opt.toy ? 200 : 4000, spans)
          : std::pair<double, double>{0.0, 0.0};
  out.add("vmpi.p2p_us", p2p, "us");
  out.add("vmpi.allreduce_us", allreduce, "us");

  out.add("telemetry.trace_overhead", traced_rate / plain_rate, "ratio");
  spans.write(opt.work_dir + "/trace.json");
  return out;
}

}  // namespace perfbench
