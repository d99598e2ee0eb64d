// F6 — the abstract's data-motion comparison: PIC "typically requires more
// data motion per computation" than the kernels usually used to demonstrate
// supercomputer performance (dense matrix, MD N-body, Monte Carlo). Each
// kernel runs on this host and reports measured Gflop/s alongside its
// analytic arithmetic intensity (flops per byte of algorithmic traffic).
#include <iostream>

#include "perf/costs.hpp"
#include "perf/datamotion.hpp"
#include "util/cli.hpp"
#include "util/csv.hpp"

using namespace minivpic;
using namespace minivpic::perf;

int main(int argc, char** argv) try {
  Args args(argc, argv);
  if (args.has("help")) {
    std::cout << "usage: bench_data_motion\n";
    return 0;
  }
  args.check_known({});
  std::vector<KernelReport> reports;
  reports.push_back(run_sgemm(384));
  reports.push_back(run_nbody(4096));
  reports.push_back(run_montecarlo(8'000'000));
  reports.push_back(run_pic_push(1 << 21, 64));

  Table table({"kernel", "measured Gflop/s", "flops/byte", "bytes/flop",
               "seconds"});
  for (const auto& r : reports) {
    const double fpb = r.flops_per_byte();
    table.add_row({r.name, r.gflops(), fpb > 1e5 ? -1.0 : fpb,
                   fpb > 1e5 ? 0.0 : 1.0 / fpb, r.seconds});
  }
  table.print(std::cout,
              "F6: data motion per computation (flops/byte = -1 means "
              "effectively compute-only)");

  const double pic_fpb =
      KernelCosts::push_flops_per_particle() /
      KernelCosts::push_bytes_per_particle(64);
  const double gemm_fpb =
      KernelCosts::sgemm_flops(384) / KernelCosts::sgemm_bytes(384);
  const double nbody_fpb =
      KernelCosts::nbody_flops(4096) / KernelCosts::nbody_bytes(4096);
  std::cout << "\nPIC moves " << gemm_fpb / pic_fpb
            << "x more bytes per flop than blocked SGEMM and "
            << nbody_fpb / pic_fpb
            << "x more than all-pairs N-body — sustaining 0.374 Pflop/s in "
               "a PIC code therefore exercises the memory system, not just "
               "the FPUs.\n";
  return 0;
} catch (const std::exception& e) {
  std::cerr << "bench_data_motion: " << e.what() << "\n";
  return 1;
}
