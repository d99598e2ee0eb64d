// F4 — the paper's science result: laser reflectivity as a function of
// laser intensity under hohlraum-like conditions (n/n_c = 0.1, Te = 2 keV,
// k lambda_De ~ 0.3 — the trapping-dominated SRS regime). The reproduced
// *shape*: negligible backscatter at low intensity, onset and steep rise
// with intensity as stimulated Raman scattering beats Landau damping with
// help from particle trapping, with the backscatter spectrum peaking near
// omega0 - omega_pe.
//
//   ./bench_reflectivity_sweep [--quick]        # classic serial sweep
//   ./bench_reflectivity_sweep --campaign [--workers=N] [--quick]
//
// --campaign runs the same sweep twice through the CampaignExecutor at an
// equal thread budget of N (default 4): serial (1 worker x N pipelines per
// job) vs concurrent (N workers x 1 pipeline per job), and reports
// jobs/hour for both plus the concurrency speedup. Sweep jobs are
// embarrassingly parallel, while intra-job pipelines lose efficiency to
// the field solve and halo phases — so the concurrent layout should win
// (>= 1.5x on hardware with >= N real cores).
#include <cmath>
#include <iostream>

#include "campaign/executor.hpp"
#include "campaign/results.hpp"
#include "campaign/spec.hpp"
#include "fft/fft.hpp"
#include "sim/diagnostics.hpp"
#include "sim/simulation.hpp"
#include "util/cli.hpp"
#include "util/csv.hpp"
#include "util/units.hpp"

using namespace minivpic;

namespace {

sim::LpiParams study_point(int ppc) {
  sim::LpiParams p;
  p.n_over_nc = 0.1;
  p.te_kev = 2.0;
  p.nx = 480;
  p.ny = p.nz = 1;  // 1D3V slab, as in LPI parameter scans
  p.dx = 0.2;
  p.ppc = ppc;
  p.vacuum_cells = 30;
  return p;
}

/// Classic mode: one simulation per a0 on the calling thread, full science
/// table (reflectivity, hot-electron fraction, backscatter spectrum).
int run_serial_sweep(bool quick) {
  const double t_end = quick ? 120.0 : 400.0;
  const int ppc = quick ? 32 : 128;

  std::cout << "LPI parameter study: n/n_c = 0.1, Te = 2 keV, lambda = 527 "
               "nm, k*lambda_De = "
            << units::srs_k_lambda_de(0.1, 2.0) << ", run to t = " << t_end
            << "/omega_pe\n\n";

  Table table({"a0", "I (W/cm^2)", "reflectivity", "hot e- fraction",
               "backscatter omega/omega_pe"});
  for (double a0 : {0.05, 0.10, 0.15, 0.20, 0.25}) {
    sim::LpiParams p = study_point(ppc);
    p.a0 = a0;
    sim::Simulation sim(sim::lpi_deck(p));
    sim.initialize();
    sim::ReflectivityProbe probe(sim, 16);
    while (sim.time() < t_end) {
      sim.step();
      probe.sample(/*warmup=*/40.0);
    }
    sim::ParticleSpectrum spec(1e-4, 1.0, 32, /*log=*/true);
    spec.build(sim, *sim.find_species("electron"));
    const double hot_threshold =
        5.0 * 1.5 * p.te_kev / units::kElectronRestKeV;
    double peak_w = 0;
    if (probe.owns_plane() && probe.backward_series().size() > 64) {
      const auto power = fft::power_spectrum(probe.backward_series());
      const auto peak = fft::peak_bin(power, 1, power.size());
      peak_w =
          fft::bin_omega(peak, 2 * (power.size() - 1), sim.local_grid().dt());
    }
    table.add_row({a0, units::intensity_from_a0(a0, 0.527),
                   probe.reflectivity(), spec.fraction_above(hot_threshold),
                   peak_w});
  }
  table.print(std::cout,
              "F4: reflectivity vs laser intensity (SRS daughter expected "
              "near omega = " +
                  std::to_string(units::omega0_over_omegape(0.1) - 1.0) + ")");
  std::cout << "\nexpected shape: reflectivity and hot-electron fraction "
               "rise steeply with intensity above the SRS/trapping "
               "threshold; spectral peak moves onto omega0 - omega_pe.\n";
  return 0;
}

/// Campaign mode: the same sweep through the CampaignExecutor, serial vs
/// concurrent at an equal thread budget.
int run_campaign_comparison(bool quick, int budget) {
  const double t_end = quick ? 30.0 : 120.0;
  const int ppc = quick ? 16 : 32;
  const sim::LpiParams base = study_point(ppc);

  campaign::CampaignSpec spec = campaign::CampaignSpec::with_factory(
      "bench_reflectivity_sweep",
      [base](const std::vector<sim::DeckOverride>& overrides) {
        sim::LpiParams p = base;
        for (const sim::DeckOverride& ov : overrides)
          p.a0 = std::stod(ov.value);
        return sim::lpi_deck(p);
      });
  spec.add_axis("laser.a0", {"0.05", "0.10", "0.15", "0.20"});
  const sim::Deck probe_deck = sim::lpi_deck(base);
  const double dt = probe_deck.grid.dt > 0 ? probe_deck.grid.dt
                                           : probe_deck.grid.courant_dt();
  spec.set_steps(std::max(1, int(std::ceil(t_end / dt))));
  spec.set_probe_plane(16);
  spec.set_warmup(40.0);

  std::cout << "campaign throughput: 4 jobs x " << spec.steps()
            << " steps, thread budget " << budget << "\n\n";

  const auto run_layout = [&](int workers, int pipelines,
                              const std::string& tag) {
    campaign::ExecutorConfig config;
    config.workers = workers;
    config.pipelines_per_job = pipelines;
    config.max_threads = budget;
    campaign::ResultStore store("bench_campaign_" + tag + ".ndjson",
                                /*resume=*/false);
    campaign::CampaignExecutor executor(spec, config);
    return executor.run(store);
  };

  const campaign::CampaignSummary serial = run_layout(1, budget, "serial");
  const campaign::CampaignSummary conc = run_layout(budget, 1, "concurrent");

  Table table({"layout", "workers", "pipelines/job", "done", "wall s",
               "jobs/hour"});
  table.add_row({std::string("serial"), 1LL, (long long)budget,
                 (long long)serial.done, serial.wall_seconds,
                 serial.jobs_per_hour});
  table.add_row({std::string("concurrent"), (long long)conc.workers, 1LL,
                 (long long)conc.done, conc.wall_seconds,
                 conc.jobs_per_hour});
  table.print(std::cout, "campaign layouts at a thread budget of " +
                             std::to_string(budget));
  const double speedup = serial.jobs_per_hour > 0
                             ? conc.jobs_per_hour / serial.jobs_per_hour
                             : 0.0;
  std::cout << "\nconcurrent-campaign speedup: " << speedup
            << "x jobs/hour over serial at the same thread budget\n";
  if (serial.failed + conc.failed > 0) {
    std::cerr << "bench_reflectivity_sweep: campaign jobs failed\n";
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) try {
  Args args(argc, argv);
  if (args.has("help")) {
    std::cout << "usage: bench_reflectivity_sweep [--quick] "
                 "[--campaign [--workers=N]]\n";
    return 0;
  }
  args.check_known({"quick", "campaign", "workers"});
  const bool quick = args.get_bool("quick", false);
  if (args.get_bool("campaign", false)) {
    return run_campaign_comparison(quick, int(args.get_int("workers", 4)));
  }
  return run_serial_sweep(quick);
} catch (const std::exception& e) {
  std::cerr << "bench_reflectivity_sweep: " << e.what() << "\n";
  return 1;
}
