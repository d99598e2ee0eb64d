#include "perf/roadrunner.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace minivpic::perf {

RoadrunnerModel::RoadrunnerModel(const RoadrunnerConfig& cfg) : cfg_(cfg) {
  MV_REQUIRE(cfg.connected_units > 0 && cfg.triblades_per_cu > 0 &&
                 cfg.cells_per_triblade > 0,
             "machine must have at least one Cell");
  MV_REQUIRE(cfg.spe_push_efficiency > 0 && cfg.spe_push_efficiency <= 1,
             "efficiency must be in (0,1]");
  MV_REQUIRE(cfg.flops_per_particle > 0 && cfg.bytes_per_particle > 0,
             "workload costs must be positive");
  MV_REQUIRE(cfg.sort_every >= 1, "sort period must be >= 1");
  MV_REQUIRE(cfg.bytes_per_particle_unsorted >= cfg.bytes_per_particle,
             "unsorted gather traffic cannot be below the sorted stream");
  MV_REQUIRE(cfg.disorder_per_step >= 0 && cfg.disorder_per_step <= 1,
             "disorder per step is a fraction");
  MV_REQUIRE(cfg.pipelines_per_chip >= 1 &&
                 cfg.pipelines_per_chip <= cfg.spes_per_cell,
             "pipelines per chip must be in [1, SPEs per chip], got "
                 << cfg.pipelines_per_chip);
  MV_REQUIRE(cfg.reduce_bytes_per_voxel >= 0,
             "reduction traffic must be non-negative");
  MV_REQUIRE(cfg.comm_overlap >= 0 && cfg.comm_overlap <= 1,
             "comm_overlap must be in [0, 1], got " << cfg.comm_overlap);
}

int RoadrunnerModel::total_cells() const {
  return cfg_.connected_units * cfg_.triblades_per_cu *
         cfg_.cells_per_triblade;
}

int RoadrunnerModel::total_spes() const {
  return total_cells() * cfg_.spes_per_cell;
}

double RoadrunnerModel::peak_sp_flops() const {
  return double(total_spes()) * cfg_.clock_hz * cfg_.sp_flops_per_spe_clock();
}

RoadrunnerPrediction RoadrunnerModel::predict(double particles, double voxels,
                                              int cells_used) const {
  MV_REQUIRE(particles > 0 && voxels > 0, "workload must be non-empty");
  const int chips = cells_used < 0 ? total_cells() : cells_used;
  MV_REQUIRE(chips >= 1 && chips <= total_cells(),
             "cells_used out of range: " << cells_used);

  RoadrunnerPrediction out;
  const double chip_flops =
      cfg_.spes_per_cell * cfg_.clock_hz * cfg_.sp_flops_per_spe_clock();
  out.peak_sp_flops = double(chips) * chip_flops;

  const double np = particles / chips;  // particles per Cell chip
  const double nv = voxels / chips;     // voxels per Cell chip

  // Particle advance roofline. The compute side only counts the SPEs that
  // actually run pipelines: fewer pipelines than SPEs idles compute.
  const double pipeline_flops = cfg_.pipelines_per_chip * cfg_.clock_hz *
                                cfg_.sp_flops_per_spe_clock();
  const double t_compute = np * cfg_.flops_per_particle /
                           (pipeline_flops * cfg_.spe_push_efficiency);
  // Memory side pays the sorted-gather discount: traffic is the sorted
  // stream blended with the random-gather penalty by the mean disorder
  // accumulated over one sort period (RoadrunnerConfig::mean_disorder).
  out.gather_disorder = cfg_.mean_disorder();
  out.bytes_per_particle_eff = cfg_.effective_bytes_per_particle();
  const double t_memory =
      np * out.bytes_per_particle_eff / cfg_.mem_bw_per_cell;
  out.t_push = std::max(t_compute, t_memory);
  out.memory_bound = t_memory >= t_compute;

  // Per-pipeline accumulator blocks folded once per step: stream every
  // private block in, read-modify-write the base block.
  out.t_reduce = nv * cfg_.reduce_bytes_per_voxel *
                 double(cfg_.pipelines_per_chip + 1) / cfg_.mem_bw_per_cell;

  // Periodic in-place bin sort, amortized over its period: a streaming
  // histogram read plus the cycle-chasing permutation's random
  // read-modify-write of each misplaced particle — calibrated at ~4x the
  // 32 B particle record (Species::sort; docs/SORTING.md).
  out.t_sort = np * (32.0 * 2 * 2) / cfg_.mem_bw_per_cell /
               double(cfg_.sort_every);

  // Field update: bandwidth-bound over the mesh (plus its modest flops).
  out.t_field = std::max(
      nv * cfg_.field_bytes_per_voxel / cfg_.mem_bw_per_cell,
      nv * cfg_.field_flops_per_voxel / (chip_flops * 0.05));

  // Inter-node exchange: ghost planes of ~6 components on the 6 faces of a
  // near-cubic per-chip block, plus migrating particles (~ the surface
  // layer's worth each step at thermal speeds), over the triblade IB link
  // shared by its 4 Cells.
  const double side = std::cbrt(std::max(nv, 1.0));
  const double ghost_bytes = 6.0 * side * side * 6.0 * 4.0;  // 6 faces x 6 comps x 4 B
  // ~1.5% of the particles in the one-cell surface shell cross a rank face
  // per step at hohlraum thermal speeds (u_th dt/dx ~ a few percent).
  const double surface_fraction = std::min(1.0, 6.0 * side * side / nv * 0.015);
  const double migrate_bytes = np * surface_fraction * 56.0;
  const double link_bw = cfg_.ib_bw_per_triblade / cfg_.cells_per_triblade;
  out.t_comm = (ghost_bytes + migrate_bytes) / link_bw + 6.0 * cfg_.ib_latency;

  // Comm/compute overlap (docs/OVERLAP.md): the overlapped step loop hides
  // the exchange behind the interior pass of the push. Only the interior
  // share of t_push is available as cover — the skin pass (the one-cell
  // shell of the near-cubic per-chip block) must finish before the exchange
  // can start, so f_skin = 1 - ((s-2)/s)^3 of the push is sequential with
  // it. comm_overlap scales the hidden fraction from 0 (barriered; t_step
  // reduces exactly to the legacy sum) to 1 (perfect scheduler).
  const double inner = std::max(0.0, side - 2.0) / side;
  out.skin_fraction = 1.0 - inner * inner * inner;
  const double cover = out.t_push * (1.0 - out.skin_fraction);
  out.t_comm_hidden = cfg_.comm_overlap * std::min(out.t_comm, cover);
  out.t_comm_exposed = out.t_comm - out.t_comm_hidden;

  // Host (Opteron) staging over PCIe/DaCS — the hybrid-architecture tax the
  // paper engineered around; calibrated residual fraction.
  out.t_host = cfg_.host_overhead_fraction * out.t_push;

  out.t_step = out.t_push + out.t_reduce + out.t_sort + out.t_field +
               out.t_comm_exposed + out.t_host;
  out.inner_loop_flops = particles * cfg_.flops_per_particle / out.t_push;
  out.sustained_flops = particles * cfg_.flops_per_particle / out.t_step;
  out.particles_per_second = particles / out.t_step;
  return out;
}

}  // namespace minivpic::perf
