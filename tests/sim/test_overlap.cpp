// The step loop's determinism contract (docs/OVERLAP.md): multi-rank runs
// exchange migrating particles on a comm worker while the interior pass
// advances, yet the removals and immigrant appends are deferred until both
// finish, so *when* the exchange completes never changes what the step
// computes. The final fields, particles, and counters must match bit for
// bit, at any rank and pipeline count, against a barriered reference and
// against a run whose exchanges vmpi delay noise holds past the interior
// pass. Plus the overlap ledger's accounting identities and the capstone:
// injected faults mid-overlap recover bit-identically.
#include <gtest/gtest.h>

#include <cstring>
#include <mutex>
#include <vector>

#include "../particles/harness.hpp"
#include "particles/particle.hpp"
#include "particles/species.hpp"
#include "sim/deck.hpp"
#include "sim/recovery.hpp"
#include "sim/simulation.hpp"
#include "vmpi/cart.hpp"
#include "vmpi/fault.hpp"
#include "vmpi/runtime.hpp"

namespace minivpic::sim {
namespace {

constexpr int kSteps = 16;

/// Two-stream beams with refluxing x walls: lots of cell crossings, steady
/// inter-rank migration when decomposed along x, and wall refluxes drawing
/// from the per-pipeline RNG streams — every mechanism whose ordering the
/// schedule-independence contract pins down. The beams are hot enough that
/// each one migrates through both x faces of a middle rank every step, so
/// the immigrant order would expose an exchange that handled faces in
/// arrival order.
Deck overlap_deck(int pipelines) {
  Deck deck = two_stream_deck(/*cells=*/32, /*ppc=*/8);
  deck.pipelines = pipelines;
  for (SpeciesConfig& sc : deck.species)
    if (sc.mobile) sc.load.uth = 0.1;
  deck.grid.boundary = grid::lpi_boundaries();  // absorbing x field walls
  deck.particle_bc[grid::kFaceXLo] = particles::ParticleBc::kReflux;
  deck.particle_bc[grid::kFaceXHi] = particles::ParticleBc::kReflux;
  return deck;
}

/// Everything that defines one rank's final state, captured bitwise.
struct RankState {
  std::vector<std::vector<grid::real>> fields;  // one vector per component
  std::vector<std::vector<particles::Particle>> species;
  ParticleStats stats;
  std::int64_t step = -1;
};

struct Snapshot {
  std::mutex mu;
  std::vector<RankState> ranks;
  explicit Snapshot(int n = 1) : ranks(std::size_t(n)) {}
};

/// Stores `fields`, `sim`'s particles, `stats` and `step` as `rank`'s state.
void capture(Snapshot& snap, const grid::FieldArray& fields,
             const Simulation& sim, const ParticleStats& stats,
             std::int64_t step, int rank) {
  RankState st;
  for (const auto c : grid::em_components()) {
    const grid::real* p = grid::component_data(fields, c);
    st.fields.emplace_back(p, p + fields.grid().num_voxels());
  }
  for (std::size_t s = 0; s < sim.num_species(); ++s) {
    const auto span = sim.species(s).particles();
    st.species.emplace_back(span.begin(), span.end());
  }
  st.stats = stats;
  st.step = step;
  std::lock_guard<std::mutex> lock(snap.mu);
  snap.ranks[std::size_t(rank)] = std::move(st);
}

void capture(Snapshot& snap, const Simulation& sim, int rank) {
  capture(snap, sim.fields(), sim, sim.particle_stats(), sim.step_index(),
          rank);
}

/// `compare_stats` = false when one side rolled back: a recovered world's
/// Simulation restarts its cumulative counters at the restored checkpoint,
/// so only state (fields, particles) is comparable, not the odometers.
void expect_bit_identical(const Snapshot& a, const Snapshot& b,
                          bool compare_stats = true) {
  ASSERT_EQ(a.ranks.size(), b.ranks.size());
  for (std::size_t r = 0; r < a.ranks.size(); ++r) {
    const RankState& x = a.ranks[r];
    const RankState& y = b.ranks[r];
    ASSERT_EQ(x.step, y.step) << "rank " << r;
    // Exact counter parity first: a mismatch here localizes the divergence
    // faster than a raw memcmp of particle bytes.
    if (compare_stats) {
      EXPECT_EQ(x.stats.pushed, y.stats.pushed) << "rank " << r;
      EXPECT_EQ(x.stats.crossings, y.stats.crossings) << "rank " << r;
      EXPECT_EQ(x.stats.migrated, y.stats.migrated) << "rank " << r;
      EXPECT_EQ(x.stats.immigrated, y.stats.immigrated) << "rank " << r;
      EXPECT_EQ(x.stats.absorbed, y.stats.absorbed) << "rank " << r;
      EXPECT_EQ(x.stats.reflected, y.stats.reflected) << "rank " << r;
      EXPECT_EQ(x.stats.refluxed, y.stats.refluxed) << "rank " << r;
    }
    ASSERT_EQ(x.fields.size(), y.fields.size()) << "rank " << r;
    for (std::size_t c = 0; c < x.fields.size(); ++c) {
      ASSERT_EQ(x.fields[c].size(), y.fields[c].size());
      ASSERT_EQ(std::memcmp(x.fields[c].data(), y.fields[c].data(),
                            x.fields[c].size() * sizeof(grid::real)),
                0)
          << "field component " << c << " differs on rank " << r;
    }
    ASSERT_EQ(x.species.size(), y.species.size()) << "rank " << r;
    for (std::size_t s = 0; s < x.species.size(); ++s) {
      ASSERT_EQ(x.species[s].size(), y.species[s].size())
          << "particle count differs, species " << s << " rank " << r;
      ASSERT_EQ(std::memcmp(x.species[s].data(), y.species[s].data(),
                            x.species[s].size() * sizeof(particles::Particle)),
                0)
          << "particles differ, species " << s << " rank " << r;
    }
  }
}

/// Runs the overlap deck for kSteps on `ranks` x 1 x 1 ranks; a non-null
/// `plane` injects its faults into the world's messages.
void run_world(int ranks, int pipelines, vmpi::FaultPlane* plane,
               Snapshot* snap) {
  snap->ranks.resize(std::size_t(ranks));
  const Deck deck = overlap_deck(pipelines);
  vmpi::WorldConfig config;
  config.fault_plane = plane;
  vmpi::run(
      ranks,
      [&](vmpi::Comm& comm) {
        const vmpi::CartTopology topo({ranks, 1, 1}, {true, true, true});
        Simulation sim(deck, &comm, &topo);
        sim.initialize();
        sim.run(kSteps);
        capture(*snap, sim, comm.rank());
      },
      config);
}

/// The barriered reference: the particle test harness runs the step
/// loop's particle schedule but completes each exchange before the interior
/// pass starts. A Simulation only loads and uncenters the particles, so both
/// worlds start from the same particles and (still zero) fields. The harness
/// has one wall reservoir; overlap_deck's two beams share their uth.
void run_barriered(int ranks, int pipelines, Snapshot* snap) {
  snap->ranks.resize(std::size_t(ranks));
  const Deck deck = overlap_deck(pipelines);
  vmpi::run(ranks, [&](vmpi::Comm& comm) {
    const vmpi::CartTopology topo({ranks, 1, 1}, {true, true, true});
    Simulation loader(deck, &comm, &topo);
    loader.initialize();
    particles::testing::Pic pic(deck.grid, topo, comm, deck.particle_bc,
                                pipelines);
    pic.pusher.set_kernel(deck.kernel);
    pic.pusher.set_reflux_uth(deck.species[0].load.uth);
    std::vector<particles::Species*> mobile;
    for (std::size_t s = 0; s < deck.species.size(); ++s)
      if (deck.species[s].mobile) mobile.push_back(&loader.species(s));
    ParticleStats stats;
    for (int n = 0; n < kSteps; ++n) {
      const particles::testing::Pic::StepStats r = pic.step(mobile);
      stats.pushed += r.pushed;
      stats.crossings += r.crossings;
      stats.absorbed += r.absorbed + r.migrate.absorbed;
      stats.reflected += r.reflected;
      stats.refluxed += r.refluxed;
      stats.migrated += r.migrate.sent;
      stats.immigrated += r.migrate.received;
    }
    capture(*snap, pic.fields, loader, stats, kSteps, comm.rank());
  });
}

class OverlapBitExact
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(OverlapBitExact, OverlappedMatchesBarriered) {
  const int ranks = std::get<0>(GetParam());
  const int pipelines = std::get<1>(GetParam());
  Snapshot overlapped, barriered;
  run_world(ranks, pipelines, nullptr, &overlapped);
  run_barriered(ranks, pipelines, &barriered);
  if (ranks > 1) {
    for (const RankState& r : overlapped.ranks)
      EXPECT_GT(r.stats.migrated, 0) << "no particle crossed a rank";
  }
  expect_bit_identical(barriered, overlapped);
}

TEST_P(OverlapBitExact, DelayedExchangeMatchesUndelayed) {
  const int ranks = std::get<0>(GetParam());
  const int pipelines = std::get<1>(GetParam());
  Snapshot prompt, delayed;
  run_world(ranks, pipelines, nullptr, &prompt);
  // A held message (1 ms) outlasts the interior pass of this small deck, so
  // held migration payloads complete after pass I instead of during it,
  // and the two x faces of a middle rank complete in either order.
  vmpi::FaultPlane plane;
  plane.set_noise(vmpi::FaultKind::kDelay, 0.5);
  run_world(ranks, pipelines, &plane, &delayed);
  if (ranks > 1) {
    EXPECT_GT(plane.injected().delayed, 0) << "no message was held";
  }
  expect_bit_identical(prompt, delayed);
}

INSTANTIATE_TEST_SUITE_P(RankPipelineMatrix, OverlapBitExact,
                         ::testing::Combine(::testing::Values(1, 2, 4),
                                            ::testing::Values(1, 4)),
                         [](const auto& info) {
                           return "ranks" +
                                  std::to_string(std::get<0>(info.param)) +
                                  "_pipes" +
                                  std::to_string(std::get<1>(info.param));
                         });

TEST(Overlap, SingleRankNeverOverlaps) {
  // A single-rank grid has no skin and no exchange partner, so there is no
  // comm worker (and the accumulator keeps one block per pipeline).
  const Deck deck = overlap_deck(1);
  Simulation sim(deck);
  EXPECT_FALSE(sim.overlap_stats().enabled);
}

TEST(Overlap, AutoResolvesOnForMultiRank) {
  const Deck deck = overlap_deck(1);
  vmpi::run(2, [&](vmpi::Comm& comm) {
    const vmpi::CartTopology topo({2, 1, 1}, {true, true, true});
    Simulation sim(deck, &comm, &topo);
    EXPECT_TRUE(sim.overlap_stats().enabled);
  });
}

TEST(Overlap, LedgerBalancesAndMigrationCountsMatch) {
  constexpr int kRanks = 4;
  const Deck deck = overlap_deck(/*pipelines=*/2);
  std::mutex mu;
  std::vector<OverlapStats> ov(kRanks);
  std::vector<ParticleStats> stats(kRanks);
  vmpi::run(kRanks, [&](vmpi::Comm& comm) {
    const vmpi::CartTopology topo({kRanks, 1, 1}, {true, true, true});
    Simulation sim(deck, &comm, &topo);
    sim.initialize();
    sim.run(kSteps);
    std::lock_guard<std::mutex> lock(mu);
    ov[std::size_t(comm.rank())] = sim.overlap_stats();
    stats[std::size_t(comm.rank())] = sim.particle_stats();
  });
  std::int64_t sent = 0, received = 0;
  for (int r = 0; r < kRanks; ++r) {
    const OverlapStats& o = ov[std::size_t(r)];
    EXPECT_TRUE(o.enabled);
    // Every step overlaps the mobile species' advances (two beams).
    EXPECT_EQ(o.overlapped_steps, 2 * kSteps) << "rank " << r;
    EXPECT_GT(o.skin_seconds, 0.0) << "rank " << r;
    EXPECT_GT(o.interior_seconds, 0.0) << "rank " << r;
    EXPECT_GT(o.comm_seconds, 0.0) << "rank " << r;
    // hidden + exposed partitions the async exchange's wall time; each
    // piece is clamped non-negative, so the sum cannot exceed comm by more
    // than clock jitter.
    EXPECT_GE(o.hidden_seconds, 0.0);
    EXPECT_GE(o.exposed_seconds, 0.0);
    EXPECT_LE(o.hidden_seconds, o.comm_seconds + 1e-9) << "rank " << r;
    sent += stats[std::size_t(r)].migrated;
    received += stats[std::size_t(r)].immigrated;
  }
  // Conservation across the rank set: every emigrant shipped settles as
  // exactly one immigrant somewhere (the stats-balance contract the
  // telemetry migrate metrics rely on).
  EXPECT_GT(sent, 0);
  EXPECT_EQ(sent, received);
}

TEST(Overlap, ChaosMidOverlapRecoversBitIdentically) {
  // A rank killed and a payload corrupted while the overlapped loop is in
  // flight: the recovery coordinator must roll back and finish with the
  // same bits as a fault-free overlapped run — whose result does not
  // depend on exchange timing (DelayedExchangeMatchesUndelayed).
  // Periodic particle walls, like the main chaos soak: reflux draws advance
  // a sequential RNG counter that checkpoints do not (yet) capture, so
  // rollback replay is bitwise only for reflux-free decks — a pre-existing
  // checkpoint-scope limit, independent of the overlap scheduler.
  constexpr int kRanks = 4;
  Deck deck = two_stream_deck(/*cells=*/32, /*ppc=*/8);
  deck.pipelines = 2;

  Snapshot clean_snap(kRanks);
  RecoveryConfig clean_rc;
  clean_rc.ranks = kRanks;
  clean_rc.checkpoint_prefix =
      ::testing::TempDir() + "/minivpic_overlap_clean.ckpt";
  clean_rc.checkpoint_every = 6;
  clean_rc.comm_timeout = 60;
  clean_rc.integrity = true;
  clean_rc.on_final = [&](Simulation& sim, vmpi::Comm& comm) {
    capture(clean_snap, sim, comm.rank());
  };
  RecoveryCoordinator clean(deck, clean_rc);
  ASSERT_TRUE(clean.run(kSteps).completed);

  vmpi::FaultPlane plane;
  plane.corrupt_message(/*rank=*/1, /*step=*/8, /*bit=*/3);
  plane.kill_rank(/*rank=*/2, /*step=*/13);
  Snapshot fault_snap(kRanks);
  RecoveryConfig rc;
  rc.ranks = kRanks;
  rc.checkpoint_prefix =
      ::testing::TempDir() + "/minivpic_overlap_chaos.ckpt";
  rc.checkpoint_every = 6;
  rc.comm_timeout = 60;
  rc.integrity = true;
  rc.fault_plane = &plane;
  rc.on_final = [&](Simulation& sim, vmpi::Comm& comm) {
    capture(fault_snap, sim, comm.rank());
  };
  RecoveryCoordinator chaos(deck, rc);
  const RecoveryReport rep = chaos.run(kSteps);
  ASSERT_TRUE(rep.completed) << rep.last_fault;
  EXPECT_EQ(rep.rollbacks, 2);
  EXPECT_EQ(plane.injected().corrupted, 1);
  EXPECT_EQ(plane.injected().killed, 1);

  expect_bit_identical(clean_snap, fault_snap, /*compare_stats=*/false);
}

}  // namespace
}  // namespace minivpic::sim
