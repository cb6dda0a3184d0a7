#include "core/pipeline.h"

#include <gtest/gtest.h>

#include <string>

#include "../test_helpers.h"
#include "scene/scene.h"

namespace gstg {
namespace {

using testutil::make_camera;

TEST(BaselinePipeline, RendersNonEmptyImage) {
  const Camera cam = make_camera();
  const GaussianCloud cloud = testutil::make_random_cloud(1500, 21);
  RenderConfig config;
  const RenderResult result = render_baseline(cloud, cam, config);

  // Some pixels received colour.
  double total = 0.0;
  for (const Vec3& p : result.image.pixels()) total += static_cast<double>(p.x + p.y + p.z);
  EXPECT_GT(total, 1.0);

  EXPECT_EQ(result.counters.input_gaussians, 1500u);
  EXPECT_GT(result.counters.visible_gaussians, 500u);
  EXPECT_GE(result.times.preprocess_ms, 0.0);
  EXPECT_GE(result.times.sort_ms, 0.0);
  EXPECT_GE(result.times.raster_ms, 0.0);
  EXPECT_EQ(result.times.bitmask_ms, 0.0);
  EXPECT_GT(result.times.total_ms(), 0.0);
}

TEST(BaselinePipeline, DeterministicAcrossThreadCounts) {
  const Camera cam = make_camera(192, 128);
  const GaussianCloud cloud = testutil::make_random_cloud(800, 31);
  RenderConfig one;
  one.threads = 1;
  RenderConfig four;
  four.threads = 4;
  const RenderResult a = render_baseline(cloud, cam, one);
  const RenderResult b = render_baseline(cloud, cam, four);
  EXPECT_EQ(max_abs_diff(a.image, b.image), 0.0f);
  EXPECT_EQ(a.counters.tile_pairs, b.counters.tile_pairs);
  EXPECT_EQ(a.counters.alpha_computations, b.counters.alpha_computations);
  EXPECT_EQ(a.counters.blend_ops, b.counters.blend_ops);
}

TEST(BaselinePipeline, BitIdenticalToPerTileReference) {
  // render_baseline is the GS-TG frame at one tile per group; the
  // independent reference runs the per-tile stages directly
  // (tests/test_helpers.h). Image and every counter must match.
  const Camera cam = make_camera(200, 152);
  const GaussianCloud cloud = testutil::make_random_cloud(1000, 29);
  for (const Boundary boundary : {Boundary::kEllipse, Boundary::kObb, Boundary::kAabb}) {
    for (const BinningMode binning : {BinningMode::kFlat, BinningMode::kHierarchical}) {
      for (const std::size_t threads : {1, 4}) {
        RenderConfig config;
        config.boundary = boundary;
        config.binning = binning;
        config.threads = threads;
        SCOPED_TRACE(std::string(to_string(boundary)) + " " + to_string(binning) + " threads " +
                     std::to_string(threads));
        const RenderResult want = testutil::reference_baseline(cloud, cam, config);
        const RenderResult got = render_baseline(cloud, cam, config);
        EXPECT_EQ(max_abs_diff(want.image, got.image), 0.0f);
        testutil::expect_counters_equal(want.counters, got.counters);
      }
    }
  }
}

TEST(BaselinePipeline, SortlessAndVerifyMatchGsTg) {
  // The sortless tile kernel blends a tile's list order-independently, and
  // GS-TG's filtered lists hold the baseline's per-tile sets: the shipped
  // images agree bit for bit, and nothing is sorted on either side.
  const Camera cam = make_camera(200, 152);
  const GaussianCloud cloud = testutil::make_random_cloud(1000, 33);
  for (const PipelineMode mode : {PipelineMode::kSortless, PipelineMode::kVerify}) {
    SCOPED_TRACE(to_string(mode));
    RenderConfig config;
    config.pipeline = mode;
    const RenderResult base = render_baseline(cloud, cam, config);
    GsTgConfig gstg_config;
    gstg_config.pipeline = mode;
    const RenderResult gstg = render_gstg(cloud, cam, gstg_config);
    EXPECT_EQ(max_abs_diff(base.image, gstg.image), 0.0f);
    EXPECT_EQ(base.counters.sort_pairs, 0u);
    EXPECT_EQ(base.counters.alpha_computations, gstg.counters.alpha_computations);
    EXPECT_EQ(base.quality.measured, mode == PipelineMode::kVerify);
    EXPECT_EQ(base.quality.psnr, gstg.quality.psnr);
  }
}

class TileSizeSweepTest : public ::testing::TestWithParam<int> {};

TEST_P(TileSizeSweepTest, ImageExactlyIndependentOfTileSizeUnderOpacityRho) {
  // With the opacity-aware extent (rho = 2 ln(255 sigma)), every splat a
  // tile list omits has alpha < 1/255 at all tile pixels — exactly the
  // splats the alpha threshold would skip anyway. The image is therefore
  // bit-exactly independent of the tile size.
  const Camera cam = make_camera(128, 96);
  const GaussianCloud cloud = testutil::make_random_cloud(500, 41);
  RenderConfig reference;
  reference.tile_size = 16;
  reference.opacity_aware_rho = true;
  const RenderResult ref = render_baseline(cloud, cam, reference);

  RenderConfig config = reference;
  config.tile_size = GetParam();
  const RenderResult result = render_baseline(cloud, cam, config);
  EXPECT_EQ(max_abs_diff(ref.image, result.image), 0.0f) << "tile " << GetParam();
}

TEST_P(TileSizeSweepTest, ThreeSigmaRuleNearlyIndependentOfTileSize) {
  // Under the 3-sigma rule (the paper's setting) an omitted splat can still
  // carry alpha up to sigma*exp(-4.5) ~ 0.011 at a tile corner, so images
  // across tile sizes agree only to that residual — the known approximation
  // of the original 3D-GS tile culling.
  const Camera cam = make_camera(128, 96);
  const GaussianCloud cloud = testutil::make_random_cloud(500, 41);
  RenderConfig reference;
  reference.tile_size = 16;
  const RenderResult ref = render_baseline(cloud, cam, reference);

  RenderConfig config = reference;
  config.tile_size = GetParam();
  const RenderResult result = render_baseline(cloud, cam, config);
  EXPECT_LE(max_abs_diff(ref.image, result.image), 0.05f) << "tile " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(TileSizes, TileSizeSweepTest, ::testing::Values(8, 32, 64));

TEST(BaselinePipeline, BoundaryMethodDoesNotChangeImage) {
  // AABB/OBB only add splats whose alpha contribution at every tile pixel is
  // below 1/255 (outside the 3-sigma contour), so the image is unchanged.
  const Camera cam = make_camera(128, 96);
  const GaussianCloud cloud = testutil::make_random_cloud(500, 43);
  RenderConfig ell;
  ell.boundary = Boundary::kEllipse;
  RenderConfig aabb;
  aabb.boundary = Boundary::kAabb;
  const RenderResult a = render_baseline(cloud, cam, ell);
  const RenderResult b = render_baseline(cloud, cam, aabb);
  // Identical because splats outside 3-sigma are rejected by the alpha
  // threshold — footnote: alpha at q>9 is sigma*exp(-4.5) < 1/255 only when
  // sigma < ~0.9; for near-opaque splats a tiny contribution can pass, so
  // allow a sub-quantisation tolerance.
  EXPECT_LE(max_abs_diff(a.image, b.image), 2.5f / 255.0f);
  // AABB processes strictly more pairs.
  EXPECT_GT(b.counters.tile_pairs, a.counters.tile_pairs);
}

TEST(BaselinePipeline, PaperTradeoffDirections) {
  // The motivation-section directions (Figs. 5 and 7): smaller tiles mean
  // more tiles per Gaussian; larger tiles mean more Gaussians per pixel.
  const Scene scene = generate_scene("train", RunScale{8, 256});
  double prev_tiles_per_gaussian = 1e18;
  double prev_gaussians_per_pixel = 0.0;
  for (const int tile : {8, 16, 32, 64}) {
    RenderConfig config;
    config.tile_size = tile;
    config.boundary = Boundary::kAabb;
    const RenderResult r = render_baseline(scene.cloud, scene.camera, config);
    const double tpg = r.counters.tiles_per_gaussian();
    const double gpp = r.counters.gaussians_per_pixel();
    EXPECT_LT(tpg, prev_tiles_per_gaussian) << "tile " << tile;
    EXPECT_GT(gpp, prev_gaussians_per_pixel) << "tile " << tile;
    prev_tiles_per_gaussian = tpg;
    prev_gaussians_per_pixel = gpp;
  }
}

TEST(BaselinePipeline, SharedGaussianPercentDropsWithTileSize) {
  // Paper Table I: the share of Gaussians touching >= 2 tiles falls as the
  // tile grows.
  const Scene scene = generate_scene("playroom", RunScale{8, 256});
  double prev = 101.0;
  for (const int tile : {8, 16, 32, 64}) {
    RenderConfig config;
    config.tile_size = tile;
    config.boundary = Boundary::kAabb;
    const RenderResult r = render_baseline(scene.cloud, scene.camera, config);
    const double shared = r.counters.shared_gaussian_percent();
    EXPECT_LT(shared, prev) << "tile " << tile;
    EXPECT_GT(shared, 0.0);
    prev = shared;
  }
}

}  // namespace
}  // namespace gstg
