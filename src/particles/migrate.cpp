#include "particles/migrate.hpp"

#include <algorithm>
#include <array>
#include <iterator>

#include "util/error.hpp"

namespace minivpic::particles {

namespace {

constexpr int kMigrateTagBase = (1 << 20) + 64;

/// On-the-wire emigrant: sender-side voxel indices are meaningless on the
/// receiver (strides differ), so cell coordinates travel explicitly.
struct WireEmigrant {
  float dx, dy, dz;        ///< offsets; the crossed axis sits exactly at +-1
  float ux, uy, uz, w;
  float rdx, rdy, rdz;     ///< remaining displacement (cell units)
  std::int32_t cx, cy, cz; ///< sender-local cell coordinates
  std::int32_t face;       ///< grid::Face crossed (sender's perspective)
};
static_assert(std::is_trivially_copyable_v<WireEmigrant>);

grid::Face opposite(grid::Face f) {
  return static_cast<grid::Face>(static_cast<int>(f) ^ 1);
}

}  // namespace

MigrateStats exchange_particles(std::vector<Emigrant> emigrants,
                                const Species& sp, const Pusher& pusher,
                                CellAccum* acc_block,
                                const grid::LocalGrid& g, vmpi::Comm* comm,
                                std::vector<Particle>* immigrants) {
  MigrateStats stats;
  if (comm == nullptr) {
    MV_REQUIRE(emigrants.empty(),
               "emigrants on a single-rank grid without a communicator");
    return stats;
  }

  const float qsp = float(sp.q());
  Pusher::Result move_stats;  // crossing counters from continued moves

  for (;;) {
    long long remaining = static_cast<long long>(emigrants.size());
    remaining = comm->allreduce_value(remaining, vmpi::Op::kSum);
    if (remaining == 0) break;
    ++stats.rounds;

    // Bucket by departure face.
    std::array<std::vector<WireEmigrant>, 6> out;
    for (const Emigrant& e : emigrants) {
      const auto c = g.voxel_coords(e.p.i);
      WireEmigrant w;
      w.dx = e.p.dx;
      w.dy = e.p.dy;
      w.dz = e.p.dz;
      w.ux = e.p.ux;
      w.uy = e.p.uy;
      w.uz = e.p.uz;
      w.w = e.p.w;
      w.rdx = e.rem.dispx;
      w.rdy = e.rem.dispy;
      w.rdz = e.rem.dispz;
      w.cx = c[0];
      w.cy = c[1];
      w.cz = c[2];
      w.face = e.face;
      out[std::size_t(e.face)].push_back(w);
    }
    stats.sent += static_cast<std::int64_t>(emigrants.size());
    emigrants.clear();

    // Post a receive for every rank-adjacent face *before* sending, so a
    // neighbor's payload completes at delivery time instead of queueing;
    // then send on every such face (empty messages keep the pattern fixed).
    // Completion order is up to the transport, but faces are *processed* in
    // fixed face order below, so results are independent of timing.
    std::array<vmpi::Request, 6> rx;
    for (int face = 0; face < 6; ++face) {
      const auto myface = static_cast<grid::Face>(face);
      const int nbr = g.neighbor(myface);
      if (nbr == grid::LocalGrid::kNoNeighbor || nbr == g.rank()) continue;
      const int tag = kMigrateTagBase + static_cast<int>(opposite(myface));
      rx[std::size_t(face)] = comm->ipost(nbr, tag);
    }
    for (int face = 0; face < 6; ++face) {
      const int nbr = g.neighbor(static_cast<grid::Face>(face));
      if (nbr == grid::LocalGrid::kNoNeighbor || nbr == g.rank()) {
        MV_ASSERT_MSG(out[std::size_t(face)].empty(),
                      "emigrant bound for a non-rank face " << face);
        continue;
      }
      comm->send(nbr, kMigrateTagBase + face,
                 std::span<const WireEmigrant>(out[std::size_t(face)]));
    }
    for (int face = 0; face < 6; ++face) {
      vmpi::Request& req = rx[std::size_t(face)];
      if (!req.valid()) continue;
      std::vector<WireEmigrant> incoming;
      try {
        comm->wait(req);
        incoming = req.take<WireEmigrant>();
      } catch (...) {
        // A fault on this face: drop the remaining posted receives so no
        // orphaned entry can swallow a later send, then let the recovery
        // machinery see the typed error.
        for (int f = face + 1; f < 6; ++f)
          if (rx[std::size_t(f)].valid()) comm->cancel(rx[std::size_t(f)]);
        throw;
      }
      for (const WireEmigrant& w : incoming) {
        const auto face_in = static_cast<grid::Face>(w.face);
        const int axis = grid::face_axis(face_in);
        const int dir = grid::face_dir(face_in);
        // Entry cell: first interior plane on my side of the face;
        // transverse coordinates carry over (splits match across a face).
        std::array<int, 3> c{w.cx, w.cy, w.cz};
        const int n = axis == 0 ? g.nx() : axis == 1 ? g.ny() : g.nz();
        c[std::size_t(axis)] = dir > 0 ? 1 : n;
        MV_REQUIRE(c[0] >= 1 && c[0] <= g.nx() && c[1] >= 1 &&
                       c[1] <= g.ny() && c[2] >= 1 && c[2] <= g.nz(),
                   "immigrant cell (" << c[0] << "," << c[1] << "," << c[2]
                                      << ") outside receiver slab");
        Particle p;
        p.dx = w.dx;
        p.dy = w.dy;
        p.dz = w.dz;
        (&p.dx)[axis] = float(-dir);  // flipped to my side of the face
        p.i = g.voxel(c[0], c[1], c[2]);
        p.ux = w.ux;
        p.uy = w.uy;
        p.uz = w.uz;
        p.w = w.w;
        Mover m{w.rdx, w.rdy, w.rdz};
        Emigrant next;
        switch (pusher.continue_move(p, m, qsp * p.w, acc_block, &next,
                                     &move_stats)) {
          case Pusher::MoveStatus::kDone:
            immigrants->push_back(p);
            ++stats.received;
            break;
          case Pusher::MoveStatus::kEmigrated:
            emigrants.push_back(next);
            break;
          case Pusher::MoveStatus::kAbsorbed:
            ++stats.absorbed;
            break;
        }
      }
    }
  }
  return stats;
}

void compact_species(Species& sp, std::span<const std::size_t> skin_dead,
                     std::span<const std::size_t> interior_dead,
                     std::span<const Particle> immigrants) {
  std::vector<std::size_t> dead;
  dead.reserve(skin_dead.size() + interior_dead.size());
  std::merge(skin_dead.begin(), skin_dead.end(), interior_dead.begin(),
             interior_dead.end(), std::back_inserter(dead));
  for (auto it = dead.rbegin(); it != dead.rend(); ++it) sp.remove(*it);
  for (const Particle& p : immigrants) sp.add(p);
}

}  // namespace minivpic::particles
