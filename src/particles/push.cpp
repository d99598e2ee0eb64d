#include "particles/push.hpp"

#include <cmath>

#include "particles/push_simd.hpp"
#include "util/error.hpp"
#include "util/timer.hpp"

namespace minivpic::particles {

namespace {

constexpr float kOne = 1.0f;
constexpr float kOneThird = 1.0f / 3.0f;
constexpr float kTwoFifteenths = 2.0f / 15.0f;

/// Reflux stream ids: pipeline p uses hash(rank, p); migration completion
/// uses a stream id no pipeline can collide with.
constexpr std::uint64_t kMigrateStream = ~std::uint64_t{0};

/// Deposits the current of one straight trajectory segment into a cell's
/// accumulator. `disp*` is the segment displacement in cell units, `mid*`
/// the segment midpoint in cell offsets. Entries get 4x the charge through
/// each edge quadrant (VPIC convention; see accumulator.hpp).
inline void accumulate_segment(CellAccum& a, float q, float dispx, float dispy,
                               float dispz, float midx, float midy,
                               float midz) {
  const float v5 = q * dispx * dispy * dispz * kOneThird;

  auto quadrant = [v5](float* out, float qd, float da, float db) {
    const float v1 = qd * da;
    float v0 = qd - v1;        // q d (1-da)
    float w1 = v1 + qd;        // q d (1+da)
    const float hi = kOne + db;
    float v2 = v0 * hi;        // q d (1-da)(1+db)
    float v3 = w1 * hi;        // q d (1+da)(1+db)
    const float lo = kOne - db;
    v0 *= lo;                  // q d (1-da)(1-db)
    w1 *= lo;                  // q d (1+da)(1-db)
    out[0] += v0 + v5;
    out[1] += w1 - v5;
    out[2] += v2 - v5;
    out[3] += v3 + v5;
  };

  quadrant(a.jx, q * dispx, midy, midz);
  quadrant(a.jy, q * dispy, midz, midx);
  quadrant(a.jz, q * dispz, midx, midy);
}

}  // namespace

Pusher::Pusher(const grid::LocalGrid& grid, const ParticleBcSpec& bc,
               double reflux_uth, std::uint64_t reflux_seed)
    : grid_(&grid),
      bc_(bc),
      reflux_uth_(reflux_uth),
      reflux_seed_(reflux_seed),
      migrate_reflux_rng_(reflux_seed,
                          hash_combine(std::uint64_t(grid.rank()),
                                       kMigrateStream)) {
  for (int face = 0; face < 6; ++face) {
    const auto gface = static_cast<grid::Face>(face);
    const bool axis_open =
        grid.on_global_boundary(gface) &&
        grid.neighbor(gface) == grid::LocalGrid::kNoNeighbor;
    if (bc[std::size_t(face)] == ParticleBc::kPeriodic) {
      MV_REQUIRE(!axis_open, "periodic particle BC on face "
                                 << face
                                 << " requires a periodic field boundary");
    } else {
      // Reflect/absorb must sit on a closed global face (otherwise the
      // particle would simply cross to the neighbor rank first).
      MV_REQUIRE(grid.boundary(gface) != grid::BoundaryKind::kPeriodic,
                 "reflect/absorb particle BC on periodic face " << face);
    }
  }

  // Skin map for the two-pass advance: a cell is skin iff it touches a face
  // whose neighbor is a *remote* rank (kNoNeighbor faces are walls and
  // self-neighbors are single-rank periodic wraps — neither can emigrate).
  // Under the CFL limit (< 1 cell per axis per step) only skin-cell
  // particles can leave the rank, which is what lets the scheduler start
  // migration right after pass S.
  bool remote[6];
  for (int face = 0; face < 6; ++face) {
    const int nbr = grid.neighbor(static_cast<grid::Face>(face));
    remote[face] = nbr != grid::LocalGrid::kNoNeighbor && nbr != grid.rank();
    has_skin_ = has_skin_ || remote[face];
  }
  if (has_skin_) {
    skin_voxel_.assign(std::size_t(grid.num_voxels()), 0);
    for (int iz = 1; iz <= grid.nz(); ++iz) {
      for (int iy = 1; iy <= grid.ny(); ++iy) {
        for (int ix = 1; ix <= grid.nx(); ++ix) {
          const bool skin = (ix == 1 && remote[grid::kFaceXLo]) ||
                            (ix == grid.nx() && remote[grid::kFaceXHi]) ||
                            (iy == 1 && remote[grid::kFaceYLo]) ||
                            (iy == grid.ny() && remote[grid::kFaceYHi]) ||
                            (iz == 1 && remote[grid::kFaceZLo]) ||
                            (iz == grid.nz() && remote[grid::kFaceZHi]);
          if (skin) skin_voxel_[std::size_t(grid.voxel(ix, iy, iz))] = 1;
        }
      }
    }
  }
}

void Pusher::ensure_reflux_streams(int n) {
  while (int(reflux_streams_.size()) < n) {
    const auto p = std::uint64_t(reflux_streams_.size());
    reflux_streams_.emplace_back(
        reflux_seed_, hash_combine(std::uint64_t(grid_->rank()), p));
  }
}

Pusher::MoveStatus Pusher::move_p(Particle& p, Mover& m, float macro_charge,
                                  CellAccum* acc, Emigrant* out,
                                  Result* stats, Rng& reflux_rng) const {
  const auto& g = *grid_;
  for (;;) {
    const float midx = p.dx, midy = p.dy, midz = p.dz;
    const float dispx = m.dispx, dispy = m.dispy, dispz = m.dispz;
    const float dirx = dispx > 0 ? 1.0f : -1.0f;
    const float diry = dispy > 0 ? 1.0f : -1.0f;
    const float dirz = dispz > 0 ? 1.0f : -1.0f;

    // Twice the fraction of the remaining move at which each face would be
    // hit (offsets advance by 2*disp, faces sit at +-1).
    const float fx = dispx == 0 ? 3.4e38f : (dirx - midx) / dispx;
    const float fy = dispy == 0 ? 3.4e38f : (diry - midy) / dispy;
    const float fz = dispz == 0 ? 3.4e38f : (dirz - midz) / dispz;

    float frac2 = 2.0f;
    int axis = 3;  // 3 = no face hit: the move completes in this cell
    if (fx < frac2) { frac2 = fx; axis = 0; }
    if (fy < frac2) { frac2 = fy; axis = 1; }
    if (fz < frac2) { frac2 = fz; axis = 2; }
    const float frac = 0.5f * frac2;

    const float sx = dispx * frac, sy = dispy * frac, sz = dispz * frac;
    accumulate_segment(acc[p.i], macro_charge, sx, sy, sz, midx + sx,
                       midy + sy, midz + sz);
    m.dispx -= sx;
    m.dispy -= sy;
    m.dispz -= sz;
    p.dx += sx + sx;
    p.dy += sy + sy;
    p.dz += sz + sz;

    if (axis == 3) return MoveStatus::kDone;
    ++stats->crossings;

    // Put the particle exactly on the face it hit (avoid round-off drift).
    const float dir = axis == 0 ? dirx : axis == 1 ? diry : dirz;
    (&p.dx)[axis] = dir;

    // Which cell lies across the face?
    auto coords = g.voxel_coords(p.i);
    const int step = dir > 0 ? 1 : -1;
    const int target = coords[std::size_t(axis)] + step;
    const int n = axis == 0 ? g.nx() : axis == 1 ? g.ny() : g.nz();
    if (target >= 1 && target <= n) {
      coords[std::size_t(axis)] = target;
      p.i = g.voxel(coords[0], coords[1], coords[2]);
      (&p.dx)[axis] = -dir;
      continue;
    }

    const grid::Face face = grid::face_of(axis, step);
    const int neighbor = g.neighbor(face);
    if (neighbor == g.rank()) {
      // Single-rank periodic axis: wrap locally.
      coords[std::size_t(axis)] = dir > 0 ? 1 : n;
      p.i = g.voxel(coords[0], coords[1], coords[2]);
      (&p.dx)[axis] = -dir;
      continue;
    }
    if (neighbor != grid::LocalGrid::kNoNeighbor) {
      // Leaves this rank: freeze state for the migration exchange.
      MV_ASSERT(out != nullptr);
      out->p = p;
      out->rem = m;
      out->face = static_cast<std::int32_t>(face);
      return MoveStatus::kEmigrated;
    }

    // Global wall.
    switch (bc_[std::size_t(face)]) {
      case ParticleBc::kReflect:
        (&p.ux)[axis] = -(&p.ux)[axis];
        (&m.dispx)[axis] = -(&m.dispx)[axis];
        ++stats->reflected;
        continue;
      case ParticleBc::kAbsorb:
        ++stats->absorbed;
        return MoveStatus::kAbsorbed;
      case ParticleBc::kReflux: {
        MV_REQUIRE(reflux_uth_ > 0,
                   "reflux wall hit with no wall temperature set "
                   "(Pusher::set_reflux_uth)");
        // Re-emit from the wall reservoir: tangential components are
        // Maxwellian, the inward normal component is flux-weighted
        // (Rayleigh: the distribution of particles *crossing* a surface).
        const float u_norm = float(
            reflux_uth_ *
            std::sqrt(-2.0 * std::log(1.0 - reflux_rng.uniform() + 1e-12)));
        float u3[3] = {float(reflux_rng.normal(0.0, reflux_uth_)),
                       float(reflux_rng.normal(0.0, reflux_uth_)),
                       float(reflux_rng.normal(0.0, reflux_uth_))};
        u3[axis] = dir > 0 ? -u_norm : u_norm;  // back into the domain
        p.ux = u3[0];
        p.uy = u3[1];
        p.uz = u3[2];
        // Spend the rest of the step travelling at the new velocity: scale
        // the remaining move onto the new direction. The remaining path
        // fraction is approximated by the remaining displacement magnitude
        // relative to a full step at the old speed — cheap and adequate;
        // refluxed particles re-thermalize anyway.
        const float rg = 1.0f / std::sqrt(1.0f + u3[0] * u3[0] +
                                          u3[1] * u3[1] + u3[2] * u3[2]);
        const float frac = 0.5f;  // re-emitted mid-step on average
        m.dispx = frac * u3[0] * rg * float(grid_->dt() / grid_->dx());
        m.dispy = frac * u3[1] * rg * float(grid_->dt() / grid_->dy());
        m.dispz = frac * u3[2] * rg * float(grid_->dt() / grid_->dz());
        ++stats->refluxed;
        continue;
      }
      case ParticleBc::kPeriodic:
        break;  // validated impossible in the constructor
    }
    MV_ASSERT(false);
  }
}

Pusher::MoveStatus Pusher::continue_move(Particle& p, Mover& m,
                                         float macro_charge,
                                         CellAccum* acc_block, Emigrant* out,
                                         Result* stats) const {
  return move_p(p, m, macro_charge, acc_block, out, stats,
                migrate_reflux_rng_);
}

void Pusher::set_kernel(Kernel k) { kernel_ = resolve_kernel(k); }

void Pusher::advance_range(Species& sp, const InterpolatorArray& interp,
                           CellAccum* acc_block, std::size_t begin,
                           std::size_t end, Rng& reflux_rng, Result& res,
                           std::vector<std::size_t>& dead) const {
  if (kernel_ != Kernel::kScalar) {
    if (const SimdAdvanceFn fn = simd_advance_entry(kernel_)) {
      fn(*this, sp, interp, acc_block, begin, end, reflux_rng, res, dead);
      return;
    }
  }
  advance_range_scalar(sp, interp, acc_block, begin, end, reflux_rng, res,
                       dead);
}

void Pusher::advance_range_scalar(Species& sp, const InterpolatorArray& interp,
                                  CellAccum* acc_block, std::size_t begin,
                                  std::size_t end, Rng& reflux_rng,
                                  Result& res,
                                  std::vector<std::size_t>& dead) const {
  const auto& g = *grid_;
  const float qdt_2mc = float(sp.q() * g.dt() / (2.0 * sp.m()));
  const float cdt_dx = float(g.dt() / g.dx());
  const float cdt_dy = float(g.dt() / g.dy());
  const float cdt_dz = float(g.dt() / g.dz());
  const float qsp = float(sp.q());
  const Interpolator* f0 = interp.data();
  CellAccum* a0 = acc_block;

  Particle* parts = sp.data();

  for (std::size_t n = begin; n < end; ++n) {
    Particle& p = parts[n];
    float dx = p.dx, dy = p.dy, dz = p.dz;
    const Interpolator& f = f0[p.i];

    // Field gather from the cached interpolator.            [flops: 27]
    const float hax =
        qdt_2mc * ((f.ex + dy * f.dexdy) + dz * (f.dexdz + dy * f.d2exdydz));
    const float hay =
        qdt_2mc * ((f.ey + dz * f.deydz) + dx * (f.deydx + dz * f.d2eydzdx));
    const float haz =
        qdt_2mc * ((f.ez + dx * f.dezdx) + dy * (f.dezdy + dx * f.d2ezdxdy));
    const float cbx = f.cbx + dx * f.dcbxdx;
    const float cby = f.cby + dy * f.dcbydy;
    const float cbz = f.cbz + dz * f.dcbzdz;

    // Half E acceleration.                                   [flops: 6]
    float ux = p.ux + hax, uy = p.uy + hay, uz = p.uz + haz;

    // Boris rotation, with VPIC's Pade-style correction giving the exact
    // rotation angle to 7th order.                           [flops: ~46]
    float v0 = qdt_2mc / std::sqrt(kOne + (ux * ux + (uy * uy + uz * uz)));
    const float v1 = cbx * cbx + (cby * cby + cbz * cbz);
    const float v2 = (v0 * v0) * v1;
    const float v3 = v0 * (kOne + v2 * (kOneThird + v2 * kTwoFifteenths));
    float v4 = v3 / (kOne + v1 * (v3 * v3));
    v4 += v4;
    v0 = ux + v3 * (uy * cbz - uz * cby);
    const float w1 = uy + v3 * (uz * cbx - ux * cbz);
    const float w2 = uz + v3 * (ux * cby - uy * cbx);
    ux += v4 * (w1 * cbz - w2 * cby);
    uy += v4 * (w2 * cbx - v0 * cbz);
    uz += v4 * (v0 * cby - w1 * cbx);

    // Second half E acceleration.                            [flops: 6]
    ux += hax;
    uy += hay;
    uz += haz;
    p.ux = ux;
    p.uy = uy;
    p.uz = uz;

    // Displacement in cell units.                            [flops: ~15]
    v0 = kOne / std::sqrt(kOne + (ux * ux + (uy * uy + uz * uz)));
    const float dispx = ux * v0 * cdt_dx;
    const float dispy = uy * v0 * cdt_dy;
    const float dispz = uz * v0 * cdt_dz;

    // Offsets advance by twice the cell-unit displacement.   [flops: 12]
    const float mx = dx + dispx, my = dy + dispy, mz = dz + dispz;  // midpoint
    const float nx = mx + dispx, ny = my + dispy, nz = mz + dispz;  // endpoint

    const float q = qsp * p.w;
    ++res.pushed;
    if (nx <= kOne && ny <= kOne && nz <= kOne && -nx <= kOne && -ny <= kOne &&
        -nz <= kOne) {
      // Common in-cell case.                                 [flops: ~70]
      p.dx = nx;
      p.dy = ny;
      p.dz = nz;
      accumulate_segment(a0[p.i], q, dispx, dispy, dispz, mx, my, mz);
      continue;
    }

    // Cell-crossing case: split the move against cell faces.
    Mover m{dispx, dispy, dispz};
    Emigrant out;
    switch (move_p(p, m, q, a0, &out, &res, reflux_rng)) {
      case MoveStatus::kDone:
        break;
      case MoveStatus::kEmigrated:
        res.emigrants.push_back(out);
        dead.push_back(n);
        break;
      case MoveStatus::kAbsorbed:
        dead.push_back(n);
        break;
    }
  }
}

void Pusher::advance_runs(Species& sp, const InterpolatorArray& interp,
                          CellAccum* acc_block, std::size_t begin,
                          std::size_t end, std::uint8_t want, Rng& reflux_rng,
                          Result& res, std::vector<std::size_t>& dead) const {
  std::size_t n = begin;
  while (n < end) {
    if (cls_[n] != want) {
      ++n;
      continue;
    }
    std::size_t m = n + 1;
    while (m < end && cls_[m] == want) ++m;
    advance_range(sp, interp, acc_block, n, m, reflux_rng, res, dead);
    n = m;
  }
}

Pusher::Pass Pusher::advance_pass(Species& sp, const InterpolatorArray& interp,
                                  AccumulatorArray& acc, Pipeline* pipeline,
                                  PassKind kind) {
  const int n_pipe = pipeline == nullptr ? 1 : pipeline->size();
  MV_REQUIRE(acc.blocks() >= n_pipe,
             "accumulator has " << acc.blocks() << " blocks but the advance "
                                << "runs on " << n_pipe << " pipelines");
  ensure_reflux_streams(n_pipe);

  // With an empty skin the two passes degenerate: S advances nothing (and
  // draws nothing), I advances full slices.
  if (!has_skin_ && kind == PassKind::kSkin) {
    Pass pass;
    pass.res.pipeline_seconds.assign(std::size_t(n_pipe), 0.0);
    return pass;
  }
  const bool full = !has_skin_;

  if (kind == PassKind::kSkin) cls_.resize(sp.size());

  // Per-pipeline private state; spliced in pipeline order after the
  // barrier so all outputs keep serial particle order.
  struct Lane {
    Result res;
    std::vector<std::size_t> dead;
    double seconds = 0;  ///< busy wall time of this pipeline's slice
  };
  std::vector<Lane> lanes(static_cast<std::size_t>(n_pipe));

  auto run = [&](int p) {
    const Timer lane_timer;
    const auto r = Pipeline::partition(sp.size(), n_pipe, p);
    Lane& lane = lanes[std::size_t(p)];
    Rng& rng = reflux_streams_[std::size_t(p)];
    if (full) {
      advance_range(sp, interp, acc.block(p), r.begin, r.end, rng, lane.res,
                    lane.dead);
    } else if (kind == PassKind::kSkin) {
      // Classify before anything moves: pass I must push exactly the
      // complement of what this pass pushes, and a skin particle may land
      // in an interior cell.
      const Particle* parts = sp.data();
      for (std::size_t n = r.begin; n < r.end; ++n)
        cls_[n] = skin_voxel_[std::size_t(parts[n].i)];
      advance_runs(sp, interp, acc.block(p), r.begin, r.end, 1, rng, lane.res,
                   lane.dead);
    } else {
      advance_runs(sp, interp, acc.block(p), r.begin, r.end, 0, rng, lane.res,
                   lane.dead);
    }
    lane.seconds = lane_timer.seconds();
  };
  if (pipeline == nullptr) {
    run(0);
  } else {
    pipeline->dispatch(run);
  }

  Pass pass;
  pass.res = std::move(lanes[0].res);
  pass.dead = std::move(lanes[0].dead);
  pass.res.pipeline_seconds.reserve(std::size_t(n_pipe));
  for (const Lane& lane : lanes)
    pass.res.pipeline_seconds.push_back(lane.seconds);
  for (int p = 1; p < n_pipe; ++p) {
    Lane& lane = lanes[std::size_t(p)];
    pass.res.pushed += lane.res.pushed;
    pass.res.crossings += lane.res.crossings;
    pass.res.absorbed += lane.res.absorbed;
    pass.res.reflected += lane.res.reflected;
    pass.res.refluxed += lane.res.refluxed;
    pass.res.emigrants.insert(pass.res.emigrants.end(),
                              lane.res.emigrants.begin(),
                              lane.res.emigrants.end());
    pass.dead.insert(pass.dead.end(), lane.dead.begin(), lane.dead.end());
  }
  return pass;
}

Pusher::Pass Pusher::advance_skin(Species& sp, const InterpolatorArray& interp,
                                  AccumulatorArray& acc, Pipeline* pipeline) {
  return advance_pass(sp, interp, acc, pipeline, PassKind::kSkin);
}

Pusher::Pass Pusher::advance_interior(Species& sp,
                                      const InterpolatorArray& interp,
                                      AccumulatorArray& acc,
                                      Pipeline* pipeline) {
  return advance_pass(sp, interp, acc, pipeline, PassKind::kInterior);
}

namespace {

/// Shared half-step momentum adjustment used by (un)center_p. `sign` +1
/// advances u by half a step (quarter kick + half rotation), -1 exactly
/// undoes that.
void half_adjust(Species& sp, const InterpolatorArray& interp,
                 const grid::LocalGrid& g, float sign) {
  const float qdt_2mc = float(sp.q() * g.dt() / (2.0 * sp.m()));
  const float qdt_4mc = 0.5f * qdt_2mc;  // half of the half-step kick
  for (Particle& p : sp.particles()) {
    const auto fld = interp.evaluate(p.i, p.dx, p.dy, p.dz);
    const float hax = qdt_4mc * fld.ex;
    const float hay = qdt_4mc * fld.ey;
    const float haz = qdt_4mc * fld.ez;
    float ux = p.ux, uy = p.uy, uz = p.uz;
    if (sign > 0) {  // quarter kick then half rotation
      ux += hax;
      uy += hay;
      uz += haz;
    }
    float v0 =
        qdt_4mc / std::sqrt(kOne + (ux * ux + (uy * uy + uz * uz)));
    const float v1 =
        fld.cbx * fld.cbx + (fld.cby * fld.cby + fld.cbz * fld.cbz);
    const float v2 = (v0 * v0) * v1;
    const float v3 =
        sign * v0 * (kOne + v2 * (kOneThird + v2 * kTwoFifteenths));
    float v4 = v3 / (kOne + v1 * (v3 * v3));
    v4 += v4;
    v0 = ux + v3 * (uy * fld.cbz - uz * fld.cby);
    const float w1 = uy + v3 * (uz * fld.cbx - ux * fld.cbz);
    const float w2 = uz + v3 * (ux * fld.cby - uy * fld.cbx);
    ux += v4 * (w1 * fld.cbz - w2 * fld.cby);
    uy += v4 * (w2 * fld.cbx - v0 * fld.cbz);
    uz += v4 * (v0 * fld.cby - w1 * fld.cbx);
    if (sign < 0) {  // half rotation (reversed) then remove the kick
      ux -= hax;
      uy -= hay;
      uz -= haz;
    }
    p.ux = ux;
    p.uy = uy;
    p.uz = uz;
  }
}

}  // namespace

void uncenter_p(Species& sp, const InterpolatorArray& interp,
                const grid::LocalGrid& grid) {
  half_adjust(sp, interp, grid, -1.0f);
}

void center_p(Species& sp, const InterpolatorArray& interp,
              const grid::LocalGrid& grid) {
  half_adjust(sp, interp, grid, +1.0f);
}

}  // namespace minivpic::particles
