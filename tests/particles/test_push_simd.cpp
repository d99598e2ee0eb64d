// Scalar-vs-SIMD equivalence for the particle advance, under the same
// determinism contract as the pipeline layer (push.hpp): exact push/
// crossing/absorb/reflect/reflux counters, trajectories to <= 4 ULP, J
// bit-exact whenever the per-cell add order matches the serial sum. The
// SIMD kernels mirror the scalar operation sequence, so in a 1-pipeline
// advance even the dense J is expected bit-identical — the sparse/warm
// tests assert that stronger property outright, the pipelined test falls
// back to the documented rounding-level agreement.
//
// Every test runs for each kernel the build/host supports (sse always;
// avx2/avx512 when compiled in and the CPU has them), so the same binary
// covers whatever the CI arch matrix compiles.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "harness.hpp"
#include "particles/kernel.hpp"
#include "particles/push_simd.hpp"
#include "util/error.hpp"
#include "util/pipeline.hpp"
#include "util/rng.hpp"

namespace minivpic::particles {
namespace {

using testing::Pic;
using testing::cube_grid;
using testing::j_close;
using testing::j_identical;

// ---- registry -------------------------------------------------------------

TEST(KernelRegistryTest, ParseAndNameRoundTrip) {
  for (Kernel k : {Kernel::kScalar, Kernel::kSse, Kernel::kAvx2,
                   Kernel::kAvx512, Kernel::kAuto})
    EXPECT_EQ(parse_kernel(kernel_name(k)), k);
  EXPECT_THROW(parse_kernel("avx1024"), Error);
  EXPECT_THROW(parse_kernel(""), Error);
}

TEST(KernelRegistryTest, LaneWidths) {
  EXPECT_EQ(kernel_lane_width(Kernel::kScalar), 1);
  EXPECT_EQ(kernel_lane_width(Kernel::kSse), 4);
  EXPECT_EQ(kernel_lane_width(Kernel::kAvx2), 8);
  EXPECT_EQ(kernel_lane_width(Kernel::kAvx512), 16);
  EXPECT_THROW(kernel_lane_width(Kernel::kAuto), Error);
}

TEST(KernelRegistryTest, ScalarAndSseAlwaysAvailable) {
  EXPECT_TRUE(kernel_available(Kernel::kScalar));
  EXPECT_TRUE(kernel_available(Kernel::kSse));
  const auto ks = available_kernels();
  ASSERT_GE(ks.size(), 2u);
  EXPECT_EQ(ks[0], Kernel::kScalar);
  EXPECT_EQ(ks[1], Kernel::kSse);
}

TEST(KernelRegistryTest, AutoResolvesToWidestAvailable) {
  const Kernel r = resolve_kernel(Kernel::kAuto);
  EXPECT_NE(r, Kernel::kAuto);
  EXPECT_TRUE(kernel_available(r));
  for (Kernel k : available_kernels())
    EXPECT_LE(kernel_lane_width(k), kernel_lane_width(r));
}

TEST(KernelRegistryTest, ScalarHasNoSimdEntry) {
  EXPECT_EQ(simd_advance_entry(Kernel::kScalar), nullptr);
  EXPECT_EQ(simd_advance_entry(Kernel::kAuto), nullptr);
}

TEST(KernelRegistryTest, PusherValidatesKernelChoice) {
  Pic pic(cube_grid(4, 0.5));
  EXPECT_EQ(pic.pusher.kernel(), Kernel::kScalar);  // library default
  pic.pusher.set_kernel(Kernel::kAuto);
  EXPECT_NE(pic.pusher.kernel(), Kernel::kAuto);
  for (Kernel k : {Kernel::kSse, Kernel::kAvx2, Kernel::kAvx512}) {
    if (kernel_available(k)) {
      pic.pusher.set_kernel(k);
      EXPECT_EQ(pic.pusher.kernel(), k);
    } else {
      EXPECT_THROW(pic.pusher.set_kernel(k), Error);
    }
  }
}

// ---- equivalence helpers --------------------------------------------------

/// ULP distance between two floats (0 when bit-identical; huge for
/// NaN/opposite-infinity pairs so they always fail the <= 4 assert).
std::int64_t ulp_diff(float a, float b) {
  if (a == b) return 0;  // covers +0 vs -0
  if (std::isnan(a) || std::isnan(b)) return std::int64_t(1) << 40;
  const auto key = [](float x) {
    std::int32_t i;
    std::memcpy(&i, &x, 4);
    return i >= 0 ? std::int64_t(i) : std::int64_t(0x8000'0000LL) - i;
  };
  const std::int64_t d = key(a) - key(b);
  return d < 0 ? -d : d;
}

::testing::AssertionResult particles_match(const Species& a, const Species& b,
                                           std::int64_t max_ulp) {
  if (a.size() != b.size())
    return ::testing::AssertionFailure()
           << "sizes differ: " << a.size() << " vs " << b.size();
  for (std::size_t n = 0; n < a.size(); ++n) {
    if (a[n].i != b[n].i)
      return ::testing::AssertionFailure()
             << "particle " << n << " voxel " << a[n].i << " vs " << b[n].i;
    const float* pa = &a[n].dx;
    const float* pb = &b[n].dx;
    static const char* kField[8] = {"dx", "dy", "dz", "i",
                                    "ux", "uy", "uz", "w"};
    for (int c : {0, 1, 2, 4, 5, 6, 7}) {
      const std::int64_t d = ulp_diff(pa[c], pb[c]);
      if (d > max_ulp)
        return ::testing::AssertionFailure()
               << "particle " << n << " field " << kField[c] << ": " << pa[c]
               << " vs " << pb[c] << " (" << d << " ULP)";
    }
  }
  return ::testing::AssertionSuccess();
}

void expect_counters_eq(const Pic::StepStats& s, const Pic::StepStats& v,
                        int step) {
  EXPECT_EQ(s.pushed, v.pushed) << "step " << step;
  EXPECT_EQ(s.crossings, v.crossings) << "step " << step;
  EXPECT_EQ(s.absorbed, v.absorbed) << "step " << step;
  EXPECT_EQ(s.reflected, v.reflected) << "step " << step;
  EXPECT_EQ(s.refluxed, v.refluxed) << "step " << step;
}

// ---- scalar-vs-SIMD equivalence, one suite per available kernel -----------

class SimdEquivalenceTest : public ::testing::TestWithParam<Kernel> {};

std::vector<Kernel> simd_kernels() {
  std::vector<Kernel> ks;
  for (Kernel k : available_kernels())
    if (k != Kernel::kScalar) ks.push_back(k);
  return ks;
}

INSTANTIATE_TEST_SUITE_P(
    AvailableKernels, SimdEquivalenceTest, ::testing::ValuesIn(simd_kernels()),
    [](const ::testing::TestParamInfo<Kernel>& info) {
      return std::string(kernel_name(info.param));
    });

TEST_P(SimdEquivalenceTest, WarmInCellMatchesScalar) {
  // The acceptance workload: warm plasma, most lanes stay in-cell. The
  // 1-pipeline deposit order matches serial exactly, so J must be
  // bit-identical even though cells collect many deposits.
  Pic ref(cube_grid(8, 0.5));
  Pic vec(cube_grid(8, 0.5));
  vec.pusher.set_kernel(GetParam());
  Species a("e", -1.0, 1.0), b("e", -1.0, 1.0);
  LoadConfig cfg;
  cfg.ppc = 12;
  cfg.uth = 0.05;
  load_uniform(a, ref.grid, cfg);
  load_uniform(b, vec.grid, cfg);
  for (int s = 0; s < 3; ++s) {
    const auto rs = ref.step({&a});
    const auto rv = vec.step({&b});
    expect_counters_eq(rs, rv, s);
    ASSERT_TRUE(j_identical(ref.fields, vec.fields)) << "step " << s;
  }
  ASSERT_TRUE(particles_match(a, b, 4));
}

TEST_P(SimdEquivalenceTest, RemainderBatchMatchesScalar) {
  // Slice sizes that are not a lane-width multiple: the tail runs the
  // scalar remainder path. Also covers n < W (whole slice is remainder).
  const int W = kernel_lane_width(GetParam());
  for (const int count : {3, 2 * W + 3, W + 1}) {
    Pic ref(cube_grid(6, 0.5));
    Pic vec(cube_grid(6, 0.5));
    vec.pusher.set_kernel(GetParam());
    Species a("e", -1.0, 1.0), b("e", -1.0, 1.0);
    Rng rng(97);
    for (int n = 0; n < count; ++n) {
      Particle p;
      p.i = ref.grid.voxel(1 + n % 6, 1 + (n / 6) % 6, 1 + (n / 36) % 6);
      p.dx = float(rng.normal(0.0, 0.4));
      p.dy = float(rng.normal(0.0, 0.4));
      p.dz = float(rng.normal(0.0, 0.4));
      p.ux = float(rng.normal(0.0, 0.2));
      p.uy = float(rng.normal(0.0, 0.2));
      p.uz = float(rng.normal(0.0, 0.2));
      p.w = 0.8f;
      a.add(p);
      b.add(p);
    }
    for (int s = 0; s < 2; ++s) {
      const auto rs = ref.step({&a});
      const auto rv = vec.step({&b});
      expect_counters_eq(rs, rv, s);
      ASSERT_TRUE(j_identical(ref.fields, vec.fields))
          << "count " << count << " step " << s;
    }
    ASSERT_TRUE(particles_match(a, b, 4)) << "count " << count;
  }
}

TEST_P(SimdEquivalenceTest, AllLanesCrossingMatchesScalar) {
  // Every lane takes the move_p spill path (in_bits == 0): fast particles
  // launched from cell centers cross at least one face per step.
  Pic ref(cube_grid(8, 0.5));
  Pic vec(cube_grid(8, 0.5));
  vec.pusher.set_kernel(GetParam());
  const int W = kernel_lane_width(GetParam());
  const int count = 2 * W + W / 2;  // full batches + remainder, all crossing
  Species a("e", -1.0, 1.0), b("e", -1.0, 1.0);
  for (int n = 0; n < count; ++n) {
    Particle p;
    p.i = ref.grid.voxel(1 + n % 8, 1 + (n / 8) % 8, 1 + (n / 64) % 8);
    p.ux = (n % 2 != 0) ? 1.0f : -1.0f;
    p.uy = 1.0f;
    p.uz = (n % 3 != 0) ? -1.0f : 1.0f;
    p.w = 1.0f;
    a.add(p);
    b.add(p);
  }
  std::int64_t crossings = 0;
  for (int s = 0; s < 3; ++s) {
    const auto rs = ref.step({&a});
    const auto rv = vec.step({&b});
    expect_counters_eq(rs, rv, s);
    crossings += rs.crossings;
    ASSERT_TRUE(j_identical(ref.fields, vec.fields)) << "step " << s;
  }
  EXPECT_GE(crossings, std::int64_t(count))
      << "test is vacuous: lanes did not cross";
  ASSERT_TRUE(particles_match(a, b, 4));
}

TEST_P(SimdEquivalenceTest, AbsorbingWallMatchesScalar) {
  // Dead-particle splicing: emigrant/absorbed lanes are recorded in lane
  // order = particle order, so the removal sequence — and therefore the
  // surviving particle order — matches scalar exactly.
  auto gg = cube_grid(8, 0.5);
  gg.boundary = grid::lpi_boundaries();
  Pic ref(gg, lpi_particles());
  Pic vec(gg, lpi_particles());
  vec.pusher.set_kernel(GetParam());
  Species a("e", -1.0, 1.0), b("e", -1.0, 1.0);
  LoadConfig cfg;
  cfg.ppc = 8;
  cfg.uth = 0.3;  // hot: steady wall losses
  load_uniform(a, ref.grid, cfg);
  load_uniform(b, vec.grid, cfg);
  std::int64_t absorbed = 0;
  for (int s = 0; s < 15; ++s) {
    const auto rs = ref.step({&a});
    const auto rv = vec.step({&b});
    expect_counters_eq(rs, rv, s);
    absorbed += rs.absorbed;
  }
  EXPECT_GT(absorbed, 0) << "walls never hit — test is vacuous";
  ASSERT_TRUE(particles_match(a, b, 4));
}

TEST_P(SimdEquivalenceTest, RefluxDrawsMatchScalarExactly) {
  // Reflux re-emission consumes RNG draws. The SIMD spill handles crossing
  // lanes in particle order from the same per-pipeline stream, so draw
  // sequences — and refluxed momenta — are identical to scalar, not just
  // statistically alike.
  auto gg = cube_grid(8, 0.5);
  gg.boundary = grid::lpi_boundaries();
  ParticleBcSpec bc = periodic_particles();
  bc[grid::kFaceXLo] = ParticleBc::kReflux;
  bc[grid::kFaceXHi] = ParticleBc::kReflux;
  Pic ref(gg, bc);
  Pic vec(gg, bc);
  vec.pusher.set_kernel(GetParam());
  const double uth = 0.3;
  ref.pusher.set_reflux_uth(uth);
  vec.pusher.set_reflux_uth(uth);
  Species a("e", -1.0, 1.0), b("e", -1.0, 1.0);
  LoadConfig cfg;
  cfg.ppc = 8;
  cfg.uth = uth;
  load_uniform(a, ref.grid, cfg);
  load_uniform(b, vec.grid, cfg);
  std::int64_t refluxed = 0;
  for (int s = 0; s < 10; ++s) {
    const auto rs = ref.step({&a});
    const auto rv = vec.step({&b});
    expect_counters_eq(rs, rv, s);
    refluxed += rs.refluxed;
  }
  EXPECT_GT(refluxed, 0) << "walls never hit — test is vacuous";
  ASSERT_TRUE(particles_match(a, b, 4));
}

TEST_P(SimdEquivalenceTest, PipelinedSimdMatchesSerialScalar) {
  // Kernel x pipeline composition (also the TSan target): N pipelines each
  // running the SIMD kernel over a contiguous slice vs the serial scalar
  // reference. Slice boundaries change which particles fall into remainder
  // batches, and the block fold reorders per-cell adds — so this asserts
  // the documented contract (exact counters, rounding-level J), not bit
  // equality.
  Pic ref(cube_grid(8, 0.5));
  Pic vec(cube_grid(8, 0.5), periodic_particles(), 3);
  vec.pusher.set_kernel(GetParam());
  Species a("e", -1.0, 1.0), b("e", -1.0, 1.0);
  LoadConfig cfg;
  cfg.ppc = 12;
  cfg.uth = 0.1;
  load_uniform(a, ref.grid, cfg);
  load_uniform(b, vec.grid, cfg);
  for (int s = 0; s < 4; ++s) {
    const auto rs = ref.step({&a});
    const auto rv = vec.step({&b});
    EXPECT_EQ(rs.pushed, rv.pushed) << "step " << s;
    EXPECT_EQ(rs.crossings, rv.crossings) << "step " << s;
    ASSERT_TRUE(j_close(ref.fields, vec.fields, 1e-4)) << "step " << s;
  }
  EXPECT_EQ(a.size(), b.size());
}

}  // namespace
}  // namespace minivpic::particles
