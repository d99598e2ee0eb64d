// Analytic performance model of the LANL Roadrunner machine running VPIC —
// the substitution for the hardware we cannot have (DESIGN.md §2, F3).
//
// Machine facts (public): 17 connected units x 180 triblades; each triblade
// carries 4 PowerXCell 8i chips (2 QS22 blades) plus one dual-socket
// dual-core Opteron LS21; 12,240 Cells / 97,920 SPEs total; 3.2 GHz SPEs at
// 8 SP flops/clock (25.6 Gflop/s each, 204.8 Gflop/s per chip) giving a
// 2.51 Pflop/s single-precision Cell-side peak; ~25.6 GB/s memory bandwidth
// per Cell; 4x DDR InfiniBand fat-tree (~2 GB/s per triblade link).
//
// The model is a roofline plus overheads:
//   t_push   = max(flops/particle / compute-rate, bytes/particle / mem-bw)
//              where bytes/particle blends sorted-stream and random-gather
//              traffic by the mean disorder over one sort period — the
//              sorted-gather discount that makes sort_every a modeled
//              tradeoff instead of a guess (docs/SORTING.md)
//   t_sort   = streaming read+write of the particle array / sort period
//   t_reduce = per-pipeline accumulator blocks folded once per step / mem-bw
//   t_field  = field-update traffic / mem-bw
//   t_comm   = ghost surface + migration bytes / IB bandwidth (+ latency)
//   t_host   = DaCS/PCIe staging, a calibrated fraction of t_push
// The particle advance runs on `pipelines_per_chip` concurrent pipelines
// (VPIC on Roadrunner: one per SPE), each with a private accumulator block;
// the compute side of the push roofline scales with the pipelines actually
// running, and the block reduction is the serial tax the pipeline layer
// pays per step.
// Key insight it encodes (and the paper's own point): at the paper's scale
// the particle advance sits on the *memory* side of the roofline — PIC
// moves more bytes per flop than the usual supercomputer demo kernels, so
// 0.488 Pflop/s in the inner loop means the DMA engines are saturated.
#pragma once

#include <cstdint>

namespace minivpic::perf {

struct RoadrunnerConfig {
  int connected_units = 17;
  int triblades_per_cu = 180;
  int cells_per_triblade = 4;
  int spes_per_cell = 8;
  double clock_hz = 3.2e9;
  /// SPE SIMD width in SP lanes (Cell: 128-bit = 4 floats). Our host
  /// kernels map onto the same axis: scalar 1, sse 4, avx2 8, avx512 16
  /// (particles::kernel_lane_width); swap this in to model other ISAs.
  int simd_lane_width = 4;
  /// SP flops each lane retires per clock (Cell SPE: one fused
  /// multiply-add pipe = 2 flops/lane/clock, giving the quoted 8
  /// flops/clock per SPE).
  double flops_per_lane_per_clock = 2.0;
  double mem_bw_per_cell = 25.6e9;     ///< bytes/s
  double ib_bw_per_triblade = 2.0e9;   ///< bytes/s per direction
  double ib_latency = 2e-6;            ///< seconds per exchange phase

  /// Concurrent particle pipelines per chip (VPIC: one per SPE). Fewer
  /// pipelines than SPEs idles compute; the accumulator reduction cost
  /// grows with the pipeline count.
  int pipelines_per_chip = 8;
  /// Bytes per voxel per pipeline block touched by the accumulator
  /// reduction (one 64-byte CellAccum cache line).
  double reduce_bytes_per_voxel = 64.0;

  // Workload cost parameters (paper flop-counting convention — slightly
  // richer than our portable kernel's 182-flop arithmetic core because it
  // includes the mover/boundary handling work; see EXPERIMENTS.md):
  double flops_per_particle = 250.0;
  double bytes_per_particle = 160.0;   ///< sorted-stream traffic (costs.hpp)
  /// Traffic per particle when the list has decayed to random cell order:
  /// every 80 B interpolator gather and 48 B accumulator RMW lands on a
  /// cold cache line instead of streaming, so the memory side of the push
  /// roofline roughly doubles (docs/SORTING.md measures this on the host
  /// kernels; bench_sort_ablation is the experiment).
  double bytes_per_particle_unsorted = 320.0;
  /// Fraction of particles that cross a cell face per step (~ u_th dt/dx);
  /// the disorder the periodic sort exists to undo accumulates at this
  /// rate, so the mean gather penalty grows with sort_every. 0 models a
  /// perfectly cold plasma (sorted order never decays).
  double disorder_per_step = 0.005;
  double field_flops_per_voxel = 66.0;
  double field_bytes_per_voxel = 60.0;

  // Calibrated efficiencies:
  double spe_push_efficiency = 0.30;   ///< compute-side ceiling, frac of peak
  double host_overhead_fraction = 0.18;  ///< DaCS/PCIe staging vs t_push
  int sort_every = 20;  ///< steps between bin sorts ([control] sort_every)

  /// Comm/compute overlap effectiveness, in [0, 1]: the fraction of the
  /// exchange the overlapped step loop (docs/OVERLAP.md; every multi-rank
  /// run) hides behind the interior push. 0 models a barriered schedule
  /// (every t_comm second exposed — the legacy t_step, exactly);
  /// 1 models a perfect scheduler that hides comm up to the interior-push
  /// budget. The hideable budget itself is bounded by the skin fraction:
  /// only the interior pass (1 - f_skin of t_push) runs concurrently with
  /// the exchange, so a chip with a thin interior cannot hide much comm no
  /// matter how good the scheduler is.
  double comm_overlap = 0.0;

  /// Mean fraction of the particle list out of streaming order, averaged
  /// over one sort period: disorder grows ~linearly from 0 right after a
  /// sort to (P-1) * disorder_per_step just before the next, clamped to 1.
  /// This is the knob coupling: larger sort_every shrinks t_sort but
  /// inflates t_push through the gather penalty — the tradeoff the
  /// [control] sort_every deck key tunes (docs/SORTING.md).
  double mean_disorder() const {
    const double d = 0.5 * double(sort_every - 1) * disorder_per_step;
    return d < 1.0 ? d : 1.0;
  }

  /// Effective push traffic: sorted-stream bytes blended with the
  /// random-gather penalty by the mean disorder fraction.
  double effective_bytes_per_particle() const {
    const double f = mean_disorder();
    return (1.0 - f) * bytes_per_particle + f * bytes_per_particle_unsorted;
  }

  /// SP flops per SPE per clock: lanes x flops/lane (Cell: 4 x 2 = the
  /// public 8 flops/clock figure).
  double sp_flops_per_spe_clock() const {
    return double(simd_lane_width) * flops_per_lane_per_clock;
  }
};

struct RoadrunnerPrediction {
  double peak_sp_flops = 0;        ///< machine SP peak (Cell side)
  double t_push = 0;               ///< seconds/step in the particle advance
  double t_reduce = 0;             ///< pipeline accumulator-block reduction
  double t_sort = 0;               ///< amortized bin-sort cost per step
  double gather_disorder = 0;      ///< mean out-of-order fraction modeled
  double bytes_per_particle_eff = 0;  ///< disorder-blended push traffic
  double t_field = 0;
  double t_comm = 0;               ///< total exchange time (wire + latency)
  double skin_fraction = 0;        ///< modeled skin share of the push
  double t_comm_hidden = 0;        ///< comm overlapped behind interior push
  double t_comm_exposed = 0;       ///< comm left on the critical path
  double t_host = 0;
  double t_step = 0;               ///< uses t_comm_exposed, not t_comm
  double inner_loop_flops = 0;     ///< sustained Pflop/s of the inner loop
  double sustained_flops = 0;      ///< sustained Pflop/s whole code
  double particles_per_second = 0;
  bool memory_bound = false;       ///< inner loop limited by memory, not SPEs
};

class RoadrunnerModel {
 public:
  explicit RoadrunnerModel(const RoadrunnerConfig& cfg = {});

  const RoadrunnerConfig& config() const { return cfg_; }

  int total_cells() const;
  int total_spes() const;
  double peak_sp_flops() const;

  /// Predicts one step of a run with `particles` macroparticles on `voxels`
  /// cells, spread over `cells_used` Cell chips (default: whole machine).
  RoadrunnerPrediction predict(double particles, double voxels,
                               int cells_used = -1) const;

 private:
  RoadrunnerConfig cfg_;
};

}  // namespace minivpic::perf
