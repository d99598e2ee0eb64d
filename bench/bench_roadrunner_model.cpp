// F3 — the headline: the Roadrunner machine model applied to the paper's
// workload (1.0e12 particles on 136e6 voxels across 12,240 PowerXCell 8i),
// predicting the sustained and inner-loop flop rates the paper measured.
// The roofline decomposition shows *why* the number is what it is: the
// particle advance saturates the Cell memory bandwidth — the data-motion
// point the abstract makes against GEMM/MD/MC demo kernels.
#include <iostream>

#include "perf/costs.hpp"
#include "perf/datamotion.hpp"
#include "perf/roadrunner.hpp"
#include "util/cli.hpp"
#include "util/csv.hpp"

using namespace minivpic;
using perf::RoadrunnerModel;

int main(int argc, char** argv) try {
  Args args(argc, argv);
  if (args.has("help")) {
    std::cout << "usage: bench_roadrunner_model\n";
    return 0;
  }
  args.check_known({});
  const RoadrunnerModel model;
  const auto& cfg = model.config();

  Table machine({"quantity", "value"});
  machine.add_row({std::string("connected units"), (long long)cfg.connected_units});
  machine.add_row({std::string("triblades"),
                   (long long)(cfg.connected_units * cfg.triblades_per_cu)});
  machine.add_row({std::string("PowerXCell 8i chips"), (long long)model.total_cells()});
  machine.add_row({std::string("SPEs"), (long long)model.total_spes()});
  machine.add_row({std::string("SP peak (Pflop/s)"), model.peak_sp_flops() / 1e15});
  machine.add_row({std::string("memory BW per Cell (GB/s)"), cfg.mem_bw_per_cell / 1e9});
  machine.add_row({std::string("particle pipelines per chip"),
                   (long long)cfg.pipelines_per_chip});
  machine.print(std::cout, "Roadrunner (as modeled)");

  const double particles = 1.0e12;
  const double voxels = 136.0e6;
  const auto p = model.predict(particles, voxels);

  std::cout << "\n";
  Table roofline({"phase", "s/step", "% of step"});
  roofline.add_row({std::string("particle advance"), p.t_push, 100 * p.t_push / p.t_step});
  roofline.add_row({std::string("pipeline reduce"), p.t_reduce, 100 * p.t_reduce / p.t_step});
  roofline.add_row({std::string("sort (amortized)"), p.t_sort, 100 * p.t_sort / p.t_step});
  roofline.add_row({std::string("field solve"), p.t_field, 100 * p.t_field / p.t_step});
  roofline.add_row({std::string("IB exchange"), p.t_comm, 100 * p.t_comm / p.t_step});
  roofline.add_row({std::string("DaCS/PCIe staging"), p.t_host, 100 * p.t_host / p.t_step});
  roofline.add_row({std::string("TOTAL"), p.t_step, 100.0});
  roofline.print(std::cout, "modeled step decomposition (trillion-particle run)");

  // The sort-vs-gather tradeoff, modeled: sweeping the sort cadence trades
  // amortized sort time against the gather-disorder penalty on the push.
  // The minimum of this curve is the tuning guidance docs/SORTING.md gives
  // for [control] sort_every.
  Table sortsweep({"sort_every", "disorder", "B/particle eff", "t_sort/step",
                   "t_push/step", "sustained Pflop/s"});
  for (const int period : {1, 5, 10, 20, 50, 100, 400}) {
    perf::RoadrunnerConfig swept = cfg;
    swept.sort_every = period;
    const auto sp = RoadrunnerModel(swept).predict(particles, voxels);
    sortsweep.add_row({(long long)period, sp.gather_disorder,
                       sp.bytes_per_particle_eff, sp.t_sort, sp.t_push,
                       sp.sustained_flops / 1e15});
  }
  sortsweep.print(std::cout,
                  "sort cadence tradeoff (amortized sort vs gather decay)");

  std::cout << "\ninner loop is "
            << (p.memory_bound ? "MEMORY-BANDWIDTH bound" : "compute bound")
            << " — " << cfg.bytes_per_particle << " B/particle at "
            << cfg.flops_per_particle << " flops/particle = "
            << cfg.flops_per_particle / cfg.bytes_per_particle
            << " flops/byte (vs SPE machine balance "
            << cfg.spes_per_cell * cfg.clock_hz * cfg.sp_flops_per_spe_clock() /
                   cfg.mem_bw_per_cell
            << " flops/byte)\n\n";

  Table headline({"metric", "paper", "model", "ratio"});
  headline.add_row({std::string("inner loop Pflop/s (s.p.)"), 0.488,
                    p.inner_loop_flops / 1e15,
                    p.inner_loop_flops / 1e15 / 0.488});
  headline.add_row({std::string("sustained Pflop/s (s.p.)"), 0.374,
                    p.sustained_flops / 1e15,
                    p.sustained_flops / 1e15 / 0.374});
  headline.add_row({std::string("particles (x1e12)"), 1.0, particles / 1e12, 1.0});
  headline.add_row({std::string("voxels (x1e6)"), 136.0, voxels / 1e6, 1.0});
  headline.print(std::cout, "F3: headline reproduction");

  std::cout << "\nstep time " << p.t_step << " s -> "
            << p.particles_per_second / 1e12
            << " trillion particle-advances per second\n";

  // Anchor the flop-counting convention against this host's measured rate.
  const auto host = perf::run_pic_push(1 << 20, 64);
  std::cout << "\nhost kernel sanity: " << host.flops / host.seconds / 1e9
            << " Gflop/s s.p. on one x86 core (" << host.flops_per_byte()
            << " flops/byte algorithmic)\n";
  return 0;
} catch (const std::exception& e) {
  std::cerr << "bench_roadrunner_model: " << e.what() << "\n";
  return 1;
}
