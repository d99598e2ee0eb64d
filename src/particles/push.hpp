// The particle advance — VPIC's inner loop, the kernel behind the paper's
// 0.488 Pflop/s claim.
//
// One advance per particle per step:
//   1. gather E, cB from the cached per-cell interpolator,
//   2. relativistic Boris momentum update (half E kick, B rotation with the
//      7th-order tan(theta/2)/(theta/2) correction, half E kick),
//   3. position update by v*dt,
//   4. charge-conserving current deposition into the per-cell accumulator;
//      cell crossings split the trajectory segment-by-segment (move_p).
//
// Displacements are handled in "cell units" (physical displacement divided
// by the cell size); cell *offsets* span [-1, 1] and therefore advance by
// twice the cell-unit displacement.
//
// Intra-rank pipelines (the paper's per-node parallel layer): each pass of
// the advance can run on N pipelines from a util Pipeline pool. The particle array is
// statically partitioned into N contiguous slices; pipeline p advances its
// slice, deposits into accumulator block p, draws reflux momenta from its
// own counter-based RNG stream, and records its emigrants/dead particles
// privately. After the barrier the per-pipeline results are spliced in
// pipeline order, which — because the partition is contiguous — reproduces
// the serial particle order exactly: counters, emigrant order, and removal
// order are identical to the 1-pipeline reference on decks without reflux
// walls, and every trajectory is bit-identical (each particle reads only
// its own state and the shared read-only interpolator). The reduced J
// (AccumulatorArray::reduce()) is bit-identical to serial when no cell
// collects more than one deposit per block, and agrees to float rounding
// (ULPs per cell) on dense decks — the per-cell addition *order* inside a
// later block differs from the serial running sum. For a fixed pipeline
// count every run is bit-wise reproducible. Reflux draws come from
// per-pipeline streams, so refluxed momenta differ *statistically* (not
// physically) across pipeline counts.
//
// SIMD kernels (push_simd.hpp, docs/KERNELS.md): set_kernel() swaps the
// per-slice advance for a W-wide vector kernel that mirrors the scalar
// operation sequence exactly — same IEEE correctly-rounded add/mul/div/
// sqrt, no FMA contraction, deposits and move_p spills executed in particle
// order. The SIMD kernels are therefore designed to be bit-identical to
// the scalar reference (trajectories, counters, emigrant order, reflux
// draws, and J alike); the *documented* contract the tests assert is the
// same one as the pipeline layer's — exact counters, trajectories to
// <= 4 ULP, bit-exact J at <= 1 deposit per cell per block — so a future
// kernel with a weaker guarantee (e.g. an FMA variant) has room to exist
// without rewording every test. Kernel choice composes with pipelines:
// each pipeline runs the selected kernel over its own contiguous slice.
#pragma once

#include <cstdint>
#include <vector>

#include "particles/accumulator.hpp"
#include "particles/interpolator.hpp"
#include "particles/kernel.hpp"
#include "particles/species.hpp"
#include "util/pipeline.hpp"
#include "util/rng.hpp"

namespace minivpic::particles {

struct SimdKernelAccess;

class Pusher {
 public:
  /// `reflux_uth` is the thermal momentum spread of the wall reservoir for
  /// kReflux faces (must be > 0 when a reflux face is actually hit).
  /// Refluxed momenta are drawn from a flux-weighted Maxwellian pointing
  /// into the domain. The spread is species-specific: set it before each
  /// species' advance with set_reflux_uth().
  Pusher(const grid::LocalGrid& grid, const ParticleBcSpec& bc,
         double reflux_uth = 0.0, std::uint64_t reflux_seed = 31415);

  /// Wall reservoir temperature for the next advance (per species).
  void set_reflux_uth(double uth) { reflux_uth_ = uth; }

  struct Result {
    std::int64_t pushed = 0;      ///< particles advanced
    std::int64_t crossings = 0;   ///< cell-face crossings handled by move_p
    std::int64_t absorbed = 0;    ///< particles removed at absorbing walls
    std::int64_t reflected = 0;   ///< wall reflections
    std::int64_t refluxed = 0;    ///< wall thermal re-emissions
    std::vector<Emigrant> emigrants;  ///< particles leaving this rank
    /// Wall seconds each pipeline spent in its advance_range slice (size =
    /// pipeline count). The spread is the telemetry layer's load-imbalance
    /// signal (max/mean across pipelines).
    std::vector<double> pipeline_seconds;
  };

  // -- two-pass (skin, then interior) advance ------------------------------
  //
  // The one advance path (docs/OVERLAP.md): pass S advances only particles
  // in *skin* cells — cells bordering a remote rank, the only ones that can
  // emit emigrants under the CFL limit — so migration can start while pass
  // I advances the interior complement. Removals are deferred to the caller:
  // after the exchange completes, compact_species (migrate.hpp) merges the
  // two ascending dead lists, removes descending, and appends immigrants.
  // On a single-rank grid the skin set is empty, pass S is a no-op, and pass
  // I advances every particle in one sweep per pipeline slice.
  //
  // With a `pipeline` pool of N > 1, `acc` must have at least N blocks;
  // each pipeline deposits into its own block and the caller must fold
  // them with acc.reduce() before unload(). Without a pool (or with a
  // 1-pipeline pool) this is the serial reference path depositing into
  // block 0 on the calling thread.

  struct Pass {
    Result res;
    /// Dead (emigrated/absorbed) particle indices, ascending. Valid until
    /// the particle list is modified.
    std::vector<std::size_t> dead;
  };

  /// Pass S: classifies every particle of `sp` (the classification is
  /// cached for the matching advance_interior call) and advances the
  /// skin-cell subset.
  Pass advance_skin(Species& sp, const InterpolatorArray& interp,
                    AccumulatorArray& acc, Pipeline* pipeline = nullptr);

  /// Pass I: advances the interior complement. Must directly follow an
  /// advance_skin on the same, unmodified particle list.
  Pass advance_interior(Species& sp, const InterpolatorArray& interp,
                        AccumulatorArray& acc, Pipeline* pipeline = nullptr);

  enum class MoveStatus { kDone, kEmigrated, kAbsorbed };

  /// Completes the move of an immigrant received from a neighbor rank
  /// (momentum already updated by the sender). `p.i` must already be this
  /// rank's voxel. On kEmigrated, `*out` describes the next hop. Deposits
  /// into `acc_block` — the step loop passes a dedicated migration block so
  /// the exchange can deposit concurrently with the interior pass.
  MoveStatus continue_move(Particle& p, Mover& m, float macro_charge,
                           CellAccum* acc_block, Emigrant* out,
                           Result* stats) const;

  const ParticleBcSpec& bc() const { return bc_; }

  /// Selects the advance kernel. kAuto resolves immediately to the widest
  /// kernel this build/host supports; an explicitly named kernel throws
  /// util::Error when unavailable. Default is the scalar reference.
  void set_kernel(Kernel k);

  /// The resolved kernel the next advance will run (never kAuto).
  Kernel kernel() const { return kernel_; }

  /// Floating-point operations per particle advance for the common in-cell
  /// case, counted from the kernel source (see push.cpp); used by the
  /// performance model and benches.
  static constexpr double flops_per_particle() { return 182.0; }

 private:
  /// Back door for the SIMD kernels (push_simd.hpp): they live in separate
  /// per-ISA translation units but need move_p, the scalar remainder path,
  /// and the grid.
  friend struct SimdKernelAccess;

  MoveStatus move_p(Particle& p, Mover& m, float macro_charge, CellAccum* acc,
                    Emigrant* out, Result* stats, Rng& reflux_rng) const;

  /// Advances particles [begin, end) of `sp` with the selected kernel,
  /// depositing into `acc_block`. Removals are deferred: dead (emigrated/
  /// absorbed) indices are appended to `dead` in ascending order for the
  /// caller to splice and remove.
  void advance_range(Species& sp, const InterpolatorArray& interp,
                     CellAccum* acc_block, std::size_t begin, std::size_t end,
                     Rng& reflux_rng, Result& res,
                     std::vector<std::size_t>& dead) const;

  /// The scalar reference loop (also the remainder path of every SIMD
  /// kernel: the last size % W particles of a slice run here).
  void advance_range_scalar(Species& sp, const InterpolatorArray& interp,
                            CellAccum* acc_block, std::size_t begin,
                            std::size_t end, Rng& reflux_rng, Result& res,
                            std::vector<std::size_t>& dead) const;

  /// Per-pipeline reflux streams exist for pipelines [0, n); streams are
  /// persistent across steps so draw sequences stay reproducible.
  void ensure_reflux_streams(int n);

  /// Shared machinery of advance_skin / advance_interior: one pass over the
  /// static pipeline partition, restricted to the requested particle class.
  enum class PassKind { kSkin, kInterior };
  Pass advance_pass(Species& sp, const InterpolatorArray& interp,
                    AccumulatorArray& acc, Pipeline* pipeline, PassKind kind);

  /// Advances the maximal runs of [begin, end) whose cached class equals
  /// `want`, preserving index order (each run goes through advance_range,
  /// so kernels see contiguous slices exactly as in a skin-free pass).
  void advance_runs(Species& sp, const InterpolatorArray& interp,
                    CellAccum* acc_block, std::size_t begin, std::size_t end,
                    std::uint8_t want, Rng& reflux_rng, Result& res,
                    std::vector<std::size_t>& dead) const;

  const grid::LocalGrid* grid_;
  ParticleBcSpec bc_;
  Kernel kernel_ = Kernel::kScalar;
  double reflux_uth_;
  std::uint64_t reflux_seed_;
  /// One independent counter-based stream per pipeline: stream p is
  /// Rng(seed, hash(rank, p)), so draws are reproducible per (rank,
  /// pipeline) and pipelines never share RNG state (the old single shared
  /// `mutable` stream was a data race under a threaded advance).
  std::vector<Rng> reflux_streams_;
  /// Stream for moves completed during migration (continue_move). Mutable
  /// because migration keeps its const Pusher interface; safe because
  /// migration is single-threaded per rank (in the overlapped loop, the
  /// comm worker is that one thread; nothing else draws from this stream
  /// until the scheduler joins it).
  mutable Rng migrate_reflux_rng_;
  /// Per-voxel skin flag (1 = the cell borders a remote rank) and its
  /// summary; built once in the constructor from the grid's neighbor map.
  std::vector<std::uint8_t> skin_voxel_;
  bool has_skin_ = false;
  /// Per-particle class (skin_voxel_ of the particle's cell) captured by
  /// advance_skin *before* any particle moves, so advance_interior pushes
  /// exactly the complement even after skin particles changed cells.
  std::vector<std::uint8_t> cls_;
};

/// Sets up leapfrog time-centering: pulls momenta back from t to t-dt/2
/// using the fields at t. Call once after loading, before the first step.
void uncenter_p(Species& sp, const InterpolatorArray& interp,
                const grid::LocalGrid& grid);

/// Inverse of uncenter_p (momenta from t-dt/2 to t), for diagnostics and
/// checkpointing that want time-centered momenta.
void center_p(Species& sp, const InterpolatorArray& interp,
              const grid::LocalGrid& grid);

}  // namespace minivpic::particles
