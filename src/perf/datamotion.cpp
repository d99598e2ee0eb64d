#include "perf/datamotion.hpp"

#include <cmath>
#include <vector>

#include "particles/loader.hpp"
#include "particles/migrate.hpp"
#include "particles/push.hpp"
#include "perf/costs.hpp"
#include "util/error.hpp"
#include "util/math.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace minivpic::perf {

KernelReport run_sgemm(std::int64_t n) {
  MV_REQUIRE(n >= 8, "matrix too small to time");
  const std::size_t nn = std::size_t(n);
  std::vector<float> a(nn * nn), b(nn * nn), c(nn * nn, 0.0f);
  Rng rng(1);
  for (auto& v : a) v = float(rng.uniform(-1, 1));
  for (auto& v : b) v = float(rng.uniform(-1, 1));

  Timer t;
  constexpr std::size_t kBlock = 32;
  for (std::size_t i0 = 0; i0 < nn; i0 += kBlock) {
    for (std::size_t k0 = 0; k0 < nn; k0 += kBlock) {
      for (std::size_t j0 = 0; j0 < nn; j0 += kBlock) {
        const std::size_t i1 = std::min(i0 + kBlock, nn);
        const std::size_t k1 = std::min(k0 + kBlock, nn);
        const std::size_t j1 = std::min(j0 + kBlock, nn);
        for (std::size_t i = i0; i < i1; ++i) {
          for (std::size_t k = k0; k < k1; ++k) {
            const float aik = a[i * nn + k];
            for (std::size_t j = j0; j < j1; ++j) {
              c[i * nn + j] += aik * b[k * nn + j];
            }
          }
        }
      }
    }
  }
  KernelReport rep;
  rep.name = "dense matrix (SGEMM)";
  rep.seconds = t.seconds();
  rep.flops = KernelCosts::sgemm_flops(n);
  rep.bytes = KernelCosts::sgemm_bytes(n);
  rep.checksum = c[nn / 2];
  return rep;
}

KernelReport run_nbody(std::int64_t n) {
  MV_REQUIRE(n >= 8, "too few bodies to time");
  const std::size_t nn = std::size_t(n);
  std::vector<float> x(nn), y(nn), z(nn), m(nn), ax(nn, 0), ay(nn, 0),
      az(nn, 0);
  Rng rng(2);
  for (std::size_t i = 0; i < nn; ++i) {
    x[i] = float(rng.uniform(-1, 1));
    y[i] = float(rng.uniform(-1, 1));
    z[i] = float(rng.uniform(-1, 1));
    m[i] = float(rng.uniform(0.5, 1.5));
  }
  constexpr float eps2 = 1e-4f;
  Timer t;
  for (std::size_t i = 0; i < nn; ++i) {
    float axi = 0, ayi = 0, azi = 0;
    const float xi = x[i], yi = y[i], zi = z[i];
    for (std::size_t j = 0; j < nn; ++j) {
      const float dx = x[j] - xi, dy = y[j] - yi, dz = z[j] - zi;
      const float r2 = dx * dx + dy * dy + dz * dz + eps2;
      const float inv_r = 1.0f / std::sqrt(r2);
      const float s = m[j] * inv_r * inv_r * inv_r;
      axi += s * dx;
      ayi += s * dy;
      azi += s * dz;
    }
    ax[i] = axi;
    ay[i] = ayi;
    az[i] = azi;
  }
  KernelReport rep;
  rep.name = "MD N-body";
  rep.seconds = t.seconds();
  rep.flops = KernelCosts::nbody_flops(n);
  rep.bytes = KernelCosts::nbody_bytes(n);
  rep.checksum = ax[nn / 2];
  return rep;
}

KernelReport run_montecarlo(std::int64_t samples) {
  MV_REQUIRE(samples >= 1000, "too few samples to time");
  Rng rng(3);
  std::int64_t inside = 0;
  Timer t;
  for (std::int64_t s = 0; s < samples; ++s) {
    const double x = rng.uniform();
    const double y = rng.uniform();
    if (x * x + y * y < 1.0) ++inside;
  }
  KernelReport rep;
  rep.name = "Monte Carlo";
  rep.seconds = t.seconds();
  rep.flops = KernelCosts::montecarlo_flops_per_sample() * double(samples);
  rep.bytes = KernelCosts::montecarlo_bytes_per_sample() * double(samples);
  rep.checksum = 4.0 * double(inside) / double(samples);
  return rep;
}

KernelReport run_pic_push(std::int64_t particles, int ppc) {
  MV_REQUIRE(ppc >= 1, "ppc must be positive");
  using namespace minivpic::particles;
  // Cube sized to hold `particles` at the requested ppc.
  const int n = std::max(
      4, int(std::round(std::cbrt(double(particles) / double(ppc)))));
  grid::GlobalGrid gg;
  gg.nx = gg.ny = gg.nz = n;
  gg.dx = gg.dy = gg.dz = 0.5;
  const grid::LocalGrid g(gg);
  grid::FieldArray f(g);
  // Mild smooth fields so the push does representative work.
  for (int k = 0; k <= n + 1; ++k)
    for (int j = 0; j <= n + 1; ++j)
      for (int i = 0; i <= n + 1; ++i) {
        f.ey(i, j, k) = 0.01f * float(std::sin(0.3 * i));
        f.cbz(i, j, k) = 0.02f * float(std::cos(0.2 * j));
      }
  InterpolatorArray interp(g);
  interp.load(f);
  AccumulatorArray acc(g);
  Pusher pusher(g, periodic_particles());
  Species sp("e", -1.0, 1.0);
  LoadConfig cfg;
  cfg.ppc = ppc;
  cfg.uth = 0.05;
  load_uniform(sp, g, cfg);
  sp.sort(g);

  // The step loop's advance: pass S (a no-op on one rank), pass I, then the
  // deferred compaction.
  Timer t;
  const Pusher::Pass skin = pusher.advance_skin(sp, interp, acc);
  const Pusher::Pass interior = pusher.advance_interior(sp, interp, acc);
  compact_species(sp, skin.dead, interior.dead, {});
  KernelReport rep;
  rep.name = "PIC particle advance";
  rep.seconds = t.seconds();
  const double pushed = double(skin.res.pushed + interior.res.pushed);
  rep.flops = KernelCosts::push_flops_per_particle() * pushed;
  rep.bytes = KernelCosts::push_bytes_per_particle(double(ppc)) * pushed;
  rep.checksum = sp.kinetic_energy();
  return rep;
}

}  // namespace minivpic::perf
