// The paper's central claim (sections I and IV-B): "GS-TG is a completely
// lossless technique". These tests assert *bit-exact* equality between the
// baseline per-tile pipeline and the GS-TG grouped pipeline across tile and
// group geometries and every boundary combination with the containment
// guarantee, on multiple scenes. The baseline side is the independent
// per-tile reference of tests/test_helpers.h, not render_baseline (which is
// itself a GS-TG frame at one tile per group).
#include <gtest/gtest.h>

#include <tuple>
#include <utility>
#include <vector>

#include "../test_helpers.h"
#include "core/pipeline.h"
#include "scene/scene.h"

namespace gstg {
namespace {

using testutil::make_camera;

struct LosslessCase {
  int tile = 16;
  int group = 64;
  Boundary group_boundary = Boundary::kEllipse;
  Boundary mask_boundary = Boundary::kEllipse;
};

std::string case_name(const ::testing::TestParamInfo<LosslessCase>& info) {
  const LosslessCase& c = info.param;
  return std::string(to_string(c.group_boundary)) + "_" + to_string(c.mask_boundary) + "_t" +
         std::to_string(c.tile) + "_g" + std::to_string(c.group);
}

class LosslessTest : public ::testing::TestWithParam<LosslessCase> {};

TEST_P(LosslessTest, GsTgImageIsBitExactVsBaseline) {
  const LosslessCase& c = GetParam();
  const Camera cam = make_camera(240, 176);
  const GaussianCloud cloud = testutil::make_random_cloud(1200, 91);

  RenderConfig baseline;
  baseline.tile_size = c.tile;
  baseline.boundary = c.mask_boundary;  // rasterization tile sets must match
  const RenderResult ref = testutil::reference_baseline(cloud, cam, baseline);

  GsTgConfig config;
  config.tile_size = c.tile;
  config.group_size = c.group;
  config.group_boundary = c.group_boundary;
  config.mask_boundary = c.mask_boundary;
  ASSERT_TRUE(config.lossless_guaranteed());
  const RenderResult ours = render_gstg(cloud, cam, config);

  EXPECT_EQ(max_abs_diff(ref.image, ours.image), 0.0f);
  // Rasterization does exactly the same work (same filtered sequences).
  EXPECT_EQ(ref.counters.alpha_computations, ours.counters.alpha_computations);
  EXPECT_EQ(ref.counters.blend_ops, ours.counters.blend_ops);
  EXPECT_EQ(ref.counters.early_exit_pixels, ours.counters.early_exit_pixels);
  // ... while sorting no more (strictly less whenever groups really span
  // multiple tiles; equal in the degenerate group==tile configuration).
  EXPECT_LE(ours.counters.sort_pairs, ref.counters.sort_pairs);
  if (c.group > c.tile) {
    EXPECT_LT(ours.counters.sort_pairs, ref.counters.sort_pairs);
  }
}

INSTANTIATE_TEST_SUITE_P(
    BoundaryCombos, LosslessTest,
    ::testing::Values(
        LosslessCase{16, 64, Boundary::kAabb, Boundary::kAabb},
        LosslessCase{16, 64, Boundary::kAabb, Boundary::kObb},
        LosslessCase{16, 64, Boundary::kAabb, Boundary::kEllipse},
        LosslessCase{16, 64, Boundary::kObb, Boundary::kObb},
        LosslessCase{16, 64, Boundary::kObb, Boundary::kEllipse},
        LosslessCase{16, 64, Boundary::kEllipse, Boundary::kEllipse}),
    case_name);

INSTANTIATE_TEST_SUITE_P(
    TileGroupGeometries, LosslessTest,
    ::testing::Values(
        LosslessCase{8, 16, Boundary::kEllipse, Boundary::kEllipse},
        LosslessCase{8, 32, Boundary::kEllipse, Boundary::kEllipse},
        LosslessCase{8, 64, Boundary::kEllipse, Boundary::kEllipse},  // 64-bit mask
        LosslessCase{16, 32, Boundary::kEllipse, Boundary::kEllipse},
        LosslessCase{32, 64, Boundary::kAabb, Boundary::kAabb},
        LosslessCase{16, 16, Boundary::kEllipse, Boundary::kEllipse}),  // 1 tile/group
    case_name);

// Geometry x thread-count sweep: the paper's Fig. 11 tile/group combinations
// must stay bit-exact whether the grouped pipeline runs single-threaded or
// with a worker pool (the accelerator's parallel execution model).
struct SweepCase {
  int tile = 16;
  int group = 64;
  std::size_t threads = 1;
};

std::string sweep_name(const ::testing::TestParamInfo<SweepCase>& info) {
  const SweepCase& c = info.param;
  // Built with appends: the operator+ chain trips GCC 12's -Wrestrict
  // false positive (PR 105329) at -O2.
  std::string name = "t";
  name += std::to_string(c.tile);
  name += "_g";
  name += std::to_string(c.group);
  name += "_threads";
  name += std::to_string(c.threads);
  return name;
}

std::vector<SweepCase> sweep_cases() {
  std::vector<SweepCase> cases;
  for (const auto& [tile, group] : {std::pair{8, 32}, {8, 64}, {16, 32}, {16, 64}}) {
    for (const std::size_t threads : {1, 4}) {
      cases.push_back(SweepCase{tile, group, threads});
    }
  }
  return cases;
}

class LosslessSweepTest : public ::testing::TestWithParam<SweepCase> {};

TEST_P(LosslessSweepTest, BitExactAcrossGeometryAndThreads) {
  const SweepCase& c = GetParam();
  const Camera cam = make_camera(240, 176);
  const GaussianCloud cloud = testutil::make_random_cloud(1200, 91);

  RenderConfig baseline;
  baseline.tile_size = c.tile;
  baseline.boundary = Boundary::kEllipse;
  baseline.threads = 1;  // single-threaded oracle
  const RenderResult ref = testutil::reference_baseline(cloud, cam, baseline);

  GsTgConfig config;
  config.tile_size = c.tile;
  config.group_size = c.group;
  config.threads = c.threads;
  ASSERT_TRUE(config.lossless_guaranteed());
  const RenderResult ours = render_gstg(cloud, cam, config);

  EXPECT_EQ(max_abs_diff(ref.image, ours.image), 0.0f);
  EXPECT_EQ(ref.counters.alpha_computations, ours.counters.alpha_computations);
  EXPECT_EQ(ref.counters.blend_ops, ours.counters.blend_ops);
  EXPECT_LT(ours.counters.sort_pairs, ref.counters.sort_pairs);
}

INSTANTIATE_TEST_SUITE_P(GeometryThreadSweep, LosslessSweepTest,
                         ::testing::ValuesIn(sweep_cases()), sweep_name);

class LosslessSceneTest : public ::testing::TestWithParam<const char*> {};

TEST_P(LosslessSceneTest, BitExactOnSyntheticScenes) {
  const Scene scene = generate_scene(GetParam(), RunScale{8, 256});
  RenderConfig baseline;
  baseline.tile_size = 16;
  baseline.boundary = Boundary::kEllipse;
  const RenderResult ref = testutil::reference_baseline(scene.cloud, scene.camera, baseline);

  GsTgConfig config;
  const RenderResult ours = render_gstg(scene.cloud, scene.camera, config);
  EXPECT_EQ(max_abs_diff(ref.image, ours.image), 0.0f);
}

INSTANTIATE_TEST_SUITE_P(Scenes, LosslessSceneTest,
                         ::testing::Values("train", "truck", "drjohnson", "playroom"));

TEST(Lossless, NonMultipleImageSizes) {
  // Edge tiles and edge groups (image not a multiple of tile or group).
  const Camera cam = make_camera(250, 187);
  const GaussianCloud cloud = testutil::make_random_cloud(900, 97);
  RenderConfig baseline;
  baseline.tile_size = 16;
  baseline.boundary = Boundary::kEllipse;
  const RenderResult ref = testutil::reference_baseline(cloud, cam, baseline);
  GsTgConfig config;
  const RenderResult ours = render_gstg(cloud, cam, config);
  EXPECT_EQ(max_abs_diff(ref.image, ours.image), 0.0f);
}

TEST(Lossless, OpacityAwareRhoModeAlsoExact) {
  const Camera cam = make_camera(160, 120);
  const GaussianCloud cloud = testutil::make_random_cloud(700, 101);
  RenderConfig baseline;
  baseline.tile_size = 16;
  baseline.boundary = Boundary::kEllipse;
  baseline.opacity_aware_rho = true;
  const RenderResult ref = testutil::reference_baseline(cloud, cam, baseline);
  GsTgConfig config;
  config.opacity_aware_rho = true;
  const RenderResult ours = render_gstg(cloud, cam, config);
  EXPECT_EQ(max_abs_diff(ref.image, ours.image), 0.0f);
}

TEST(Lossless, GsTgDeterministicAcrossThreads) {
  const Camera cam = make_camera(160, 120);
  const GaussianCloud cloud = testutil::make_random_cloud(600, 103);
  GsTgConfig one;
  one.threads = 1;
  GsTgConfig four;
  four.threads = 4;
  const RenderResult a = render_gstg(cloud, cam, one);
  const RenderResult b = render_gstg(cloud, cam, four);
  EXPECT_EQ(max_abs_diff(a.image, b.image), 0.0f);
  EXPECT_EQ(a.counters.alpha_computations, b.counters.alpha_computations);
  EXPECT_EQ(a.counters.bitmask_tests, b.counters.bitmask_tests);
}

TEST(Lossless, OneTileGroupsWithOneBoundaryNeedNoMaskStage) {
  // r = 1 and one boundary method: the group test was the tile test, so
  // every mask is 1 without a test and the AND-filter checks nothing.
  // (BaselinePipeline.BitIdenticalToPerTileReference checks the frame.)
  const Camera cam = make_camera(240, 176);
  const GaussianCloud cloud = testutil::make_random_cloud(1200, 91);
  for (const Boundary boundary : {Boundary::kEllipse, Boundary::kObb, Boundary::kAabb}) {
    SCOPED_TRACE(to_string(boundary));
    GsTgConfig config;
    config.group_size = config.tile_size;
    config.group_boundary = boundary;
    config.mask_boundary = boundary;
    ASSERT_TRUE(config.group_test_is_tile_test());
    const RenderResult ours = render_gstg(cloud, cam, config);
    EXPECT_EQ(ours.counters.bitmask_tests, 0u);
    EXPECT_EQ(ours.counters.filter_checks, 0u);
    EXPECT_EQ(ours.times.bitmask_ms, 0.0);
  }
}

TEST(Lossless, OneTileGroupsWithLooserGroupBoundaryStillTestMasks) {
  // r = 1 but an AABB group test: the ellipse mask test still decides which
  // entries a tile keeps, so the mask stage and the filter run.
  const Camera cam = make_camera(240, 176);
  const GaussianCloud cloud = testutil::make_random_cloud(1200, 91);
  GsTgConfig config;
  config.group_size = config.tile_size;
  config.group_boundary = Boundary::kAabb;
  config.mask_boundary = Boundary::kEllipse;
  ASSERT_FALSE(config.group_test_is_tile_test());
  const RenderResult ours = render_gstg(cloud, cam, config);
  EXPECT_GT(ours.counters.bitmask_tests, 0u);
  EXPECT_GT(ours.counters.filter_checks, 0u);

  RenderConfig baseline;
  baseline.boundary = Boundary::kEllipse;
  const RenderResult ref = testutil::reference_baseline(cloud, cam, baseline);
  EXPECT_EQ(max_abs_diff(ref.image, ours.image), 0.0f);
  EXPECT_EQ(ref.counters.alpha_computations, ours.counters.alpha_computations);
  EXPECT_EQ(ref.counters.blend_ops, ours.counters.blend_ops);
  // Every AABB group-list entry is sorted, more than the ellipse tile lists.
  EXPECT_GT(ours.counters.sort_pairs, ref.counters.sort_pairs);
}

TEST(Lossless, StageTimesAttributed) {
  const Camera cam = make_camera(160, 120);
  const GaussianCloud cloud = testutil::make_random_cloud(600, 107);
  const RenderResult r = render_gstg(cloud, cam, GsTgConfig{});
  EXPECT_GE(r.times.preprocess_ms, 0.0);
  EXPECT_GE(r.times.bitmask_ms, 0.0);
  EXPECT_GE(r.times.sort_ms, 0.0);
  EXPECT_GE(r.times.raster_ms, 0.0);
  EXPECT_GT(r.counters.bitmask_tests, 0u);
  EXPECT_GT(r.counters.filter_checks, 0u);
}

}  // namespace
}  // namespace gstg
