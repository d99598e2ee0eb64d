#include "perf/roadrunner.hpp"

#include <gtest/gtest.h>

#include "util/error.hpp"

namespace minivpic::perf {
namespace {

TEST(RoadrunnerModelTest, MachineShape) {
  const RoadrunnerModel model;
  EXPECT_EQ(model.total_cells(), 12240);
  EXPECT_EQ(model.total_spes(), 97920);
  // SP peak ~2.51 Pflop/s on the Cell side.
  EXPECT_NEAR(model.peak_sp_flops() / 1e15, 2.507, 0.01);
}

TEST(RoadrunnerModelTest, ReproducesHeadlineNumbers) {
  // The paper: 1.0e12 particles on 136e6 voxels sustained >0.374 Pflop/s
  // with the inner loop at 0.488 Pflop/s. The model must land within ~10%.
  const RoadrunnerModel model;
  const auto p = model.predict(1.0e12, 136e6);
  EXPECT_NEAR(p.inner_loop_flops / 1e15, 0.488, 0.05);
  EXPECT_NEAR(p.sustained_flops / 1e15, 0.374, 0.04);
  EXPECT_TRUE(p.memory_bound) << "the paper's point: PIC is data-motion "
                                 "limited at this scale";
  EXPECT_GT(p.particles_per_second, 1e12);
}

TEST(RoadrunnerModelTest, StepDecomposesConsistently) {
  const RoadrunnerModel model;
  const auto p = model.predict(1.0e12, 136e6);
  EXPECT_NEAR(p.t_step, p.t_push + p.t_reduce + p.t_sort + p.t_field +
                            p.t_comm + p.t_host,
              1e-12);
  EXPECT_GT(p.t_push / p.t_step, 0.5) << "particle advance must dominate";
  EXPECT_GT(p.inner_loop_flops, p.sustained_flops);
}

TEST(RoadrunnerModelTest, PipelineCountShapesTheRoofline) {
  // One pipeline per chip idles 7 of 8 SPEs: the push must flip to
  // compute-bound and slow down; the accumulator reduction must shrink.
  RoadrunnerConfig one;
  one.pipelines_per_chip = 1;
  const auto p1 = RoadrunnerModel(one).predict(1.0e12, 136e6);
  const auto p8 = RoadrunnerModel().predict(1.0e12, 136e6);
  EXPECT_GT(p1.t_push, p8.t_push);
  EXPECT_FALSE(p1.memory_bound) << "one pipeline cannot saturate memory";
  EXPECT_TRUE(p8.memory_bound);
  EXPECT_LT(p1.t_reduce, p8.t_reduce);
  // At full pipelines the reduction is a negligible serial tax (<1% step).
  EXPECT_LT(p8.t_reduce / p8.t_step, 0.01);
}

TEST(RoadrunnerModelTest, WeakScalingNearLinear) {
  // Fixed per-chip load: sustained rate grows ~linearly with chips.
  const RoadrunnerModel model;
  const double per_chip_particles = 1.0e12 / 12240;
  const double per_chip_voxels = 136e6 / 12240;
  const auto small = model.predict(per_chip_particles * 100,
                                   per_chip_voxels * 100, 100);
  const auto big = model.predict(per_chip_particles * 12240,
                                 per_chip_voxels * 12240, 12240);
  const double eff =
      (big.sustained_flops / 12240.0) / (small.sustained_flops / 100.0);
  EXPECT_GT(eff, 0.95);
  EXPECT_LE(eff, 1.02);
}

TEST(RoadrunnerModelTest, ComputeBoundAtLowPpc) {
  // Few particles per voxel raise interpolator traffic per particle — but
  // the roofline crossover is about flops vs bytes per particle: crank the
  // flop count and the model must flip to compute-bound.
  RoadrunnerConfig cfg;
  cfg.flops_per_particle = 2000;
  const RoadrunnerModel model(cfg);
  const auto p = model.predict(1e12, 136e6);
  EXPECT_FALSE(p.memory_bound);
}

TEST(RoadrunnerModelTest, PartialMachine) {
  const RoadrunnerModel model;
  const auto p = model.predict(1e10, 1.36e6, 122);
  EXPECT_NEAR(p.peak_sp_flops, 122 * 8 * 3.2e9 * 8, 1.0);
  EXPECT_THROW(model.predict(1e10, 1e6, 20000), Error);
  EXPECT_THROW(model.predict(-1, 1e6), Error);
}

TEST(RoadrunnerModelTest, ConfigValidation) {
  RoadrunnerConfig cfg;
  cfg.spe_push_efficiency = 0;
  EXPECT_THROW(RoadrunnerModel{cfg}, Error);
  cfg = {};
  cfg.sort_every = 0;
  EXPECT_THROW(RoadrunnerModel{cfg}, Error);
  cfg = {};
  cfg.flops_per_particle = -5;
  EXPECT_THROW(RoadrunnerModel{cfg}, Error);
  cfg = {};
  cfg.pipelines_per_chip = 0;
  EXPECT_THROW(RoadrunnerModel{cfg}, Error);
  cfg = {};
  cfg.pipelines_per_chip = 9;  // more pipelines than SPEs
  EXPECT_THROW(RoadrunnerModel{cfg}, Error);
}

TEST(RoadrunnerModelTest, OverlapFactorHidesCommBehindInteriorPush) {
  RoadrunnerConfig off;  // comm_overlap defaults to 0: the legacy model
  const auto barriered = RoadrunnerModel(off).predict(1.0e12, 136e6);
  EXPECT_DOUBLE_EQ(barriered.t_comm_hidden, 0.0);
  EXPECT_DOUBLE_EQ(barriered.t_comm_exposed, barriered.t_comm);

  RoadrunnerConfig on;
  on.comm_overlap = 1.0;
  const auto overlapped = RoadrunnerModel(on).predict(1.0e12, 136e6);
  // The split is exact, the hidden part is bounded by the interior cover,
  // and hiding comm can only shorten the step.
  EXPECT_NEAR(overlapped.t_comm_hidden + overlapped.t_comm_exposed,
              overlapped.t_comm, 1e-15);
  EXPECT_GT(overlapped.t_comm_hidden, 0.0);
  EXPECT_LE(overlapped.t_comm_hidden,
            overlapped.t_push * (1.0 - overlapped.skin_fraction) + 1e-15);
  EXPECT_LT(overlapped.t_step, barriered.t_step);
  EXPECT_NEAR(barriered.t_step - overlapped.t_step, overlapped.t_comm_hidden,
              1e-12);
}

TEST(RoadrunnerModelTest, SkinFractionFollowsVoxelBlockGeometry) {
  // 136e6 voxels over 12240 cells -> ~11111 per cell, side ~22.3: the
  // 2-cell-thick skin shell of a cube that size is ~25% of its volume.
  const auto p = RoadrunnerModel().predict(1.0e12, 136e6);
  EXPECT_GT(p.skin_fraction, 0.0);
  EXPECT_LT(p.skin_fraction, 1.0);
  EXPECT_NEAR(p.skin_fraction, 0.25, 0.05);

  RoadrunnerConfig cfg;
  cfg.comm_overlap = 1.5;  // outside [0, 1]
  EXPECT_THROW(RoadrunnerModel{cfg}, Error);
  cfg.comm_overlap = -0.1;
  EXPECT_THROW(RoadrunnerModel{cfg}, Error);
}

}  // namespace
}  // namespace minivpic::perf
