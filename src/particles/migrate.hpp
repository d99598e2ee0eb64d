// Inter-rank particle migration (VPIC's boundary_p): particles that leave a
// rank mid-move are shipped to the neighbor across the face they crossed,
// which finishes their move (depositing the remaining current locally).
// Corner trajectories can hop ranks more than once per step, so exchange
// rounds repeat until no rank holds emigrants.
//
// exchange_particles is the overlap-scheduler core (docs/OVERLAP.md): it
// uses posted receives (vmpi::Comm::ipost) so payloads complete at delivery
// time, deposits into a caller-chosen accumulator block, and buffers settled
// immigrants instead of appending to the species — the three properties
// that make it safe to run on a comm worker thread concurrently with the
// interior push. compact_species then applies the advance's deferred
// removals and appends the immigrants, once both passes and every exchange
// have finished.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "particles/push.hpp"
#include "vmpi/comm.hpp"

namespace minivpic::particles {

struct MigrateStats {
  std::int64_t sent = 0;      ///< emigrants shipped off this rank
  std::int64_t received = 0;  ///< immigrants that settled on this rank
  std::int64_t absorbed = 0;  ///< absorbed at walls while completing moves
  int rounds = 0;
};

/// Ships `emigrants` to their destination ranks, receives immigrants, and
/// completes their moves on this rank: survivors are appended to
/// *immigrants (NOT to the species — the caller appends after its deferred
/// removals), currents go into `acc_block`. Collective: every rank must
/// call it each round-trip, even with no emigrants; single-rank grids
/// accept an empty list without a communicator. Touches only `comm`,
/// `acc_block`, `*immigrants`, and the pusher's migration RNG stream, and
/// reads `sp` — the overlap scheduler's contract for running this on a
/// worker thread while the interior pass advances particles.
MigrateStats exchange_particles(std::vector<Emigrant> emigrants,
                                const Species& sp, const Pusher& pusher,
                                CellAccum* acc_block,
                                const grid::LocalGrid& grid, vmpi::Comm* comm,
                                std::vector<Particle>* immigrants);

/// Finishes a two-pass advance (push.hpp): merges the ascending dead lists
/// of pass S and pass I, removes those particles in descending index order
/// (so each swap-with-last leaves the pending indices valid), then appends
/// the settled `immigrants`. The step loop and every test harness and bench
/// that advances particles end each species' advance here, so the particle
/// array layout is the same wherever the advance runs.
void compact_species(Species& sp, std::span<const std::size_t> skin_dead,
                     std::span<const std::size_t> interior_dead,
                     std::span<const Particle> immigrants);

}  // namespace minivpic::particles
