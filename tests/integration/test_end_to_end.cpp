// Cross-module integration tests: the full user journey a downstream
// adopter follows — checkpoint I/O -> quantisation -> both pipelines ->
// simulator — plus paper-level invariants that span several modules.
#include <gtest/gtest.h>

#include <sstream>

#include "../test_helpers.h"
#include "core/pipeline.h"
#include "core/renderer.h"
#include "gaussian/ply_io.h"
#include "gaussian/quantize.h"
#include "gaussian/transform.h"
#include "render/metrics.h"
#include "scene/scene.h"
#include "sim/accel.h"
#include "sim/workload.h"

namespace gstg {
namespace {

TEST(EndToEnd, PlyRoundTripThenRenderMatchesOriginal) {
  // Save a scene to the 3D-GS checkpoint format, reload it, and render:
  // the image must match the in-memory original to fp-serialisation noise.
  const Scene scene = generate_scene("playroom", RunScale{8, 512});
  std::stringstream buffer;
  write_gaussian_ply(buffer, scene.cloud);
  const GaussianCloud reloaded = read_gaussian_ply(buffer);
  ASSERT_EQ(reloaded.size(), scene.cloud.size());

  RenderConfig config;
  const RenderResult a = render_baseline(scene.cloud, scene.camera, config);
  const RenderResult b = render_baseline(reloaded, scene.camera, config);
  // logit/sigmoid and log/exp round-trips perturb parameters by ~1e-6.
  EXPECT_GT(psnr(a.image, b.image), 60.0);
  EXPECT_GT(ssim(a.image, b.image), 0.999);
}

TEST(EndToEnd, Fp16QuantisedCloudStaysLosslessUnderGsTg) {
  // The accelerator's data path: quantise to fp16, then GS-TG must still be
  // bit-exact against the fp16 baseline (losslessness is a property of the
  // pipeline, not of the precision).
  Scene scene = generate_scene("truck", RunScale{8, 512});
  quantize_cloud_to_fp16(scene.cloud);

  RenderConfig base;
  base.tile_size = 16;
  base.boundary = Boundary::kEllipse;
  const RenderResult a = render_baseline(scene.cloud, scene.camera, base);
  const RenderResult b = render_gstg(scene.cloud, scene.camera, GsTgConfig{});
  EXPECT_EQ(max_abs_diff(a.image, b.image), 0.0f);
}

TEST(EndToEnd, PrunedCloudRendersWithFewerPairsAndBoundedLoss) {
  // The lossy pruning baseline from related work, end to end: fewer pairs,
  // image close but not exact — contrast with GS-TG's exactness.
  const Scene scene = generate_scene("train", RunScale{8, 512});
  GaussianCloud pruned = scene.cloud;
  const std::size_t removed = prune_by_opacity(pruned, 0.2f);
  ASSERT_GT(removed, 0u);

  RenderConfig config;
  const RenderResult full = render_baseline(scene.cloud, scene.camera, config);
  const RenderResult less = render_baseline(pruned, scene.camera, config);
  EXPECT_LT(less.counters.tile_pairs, full.counters.tile_pairs);
  EXPECT_GT(max_abs_diff(full.image, less.image), 0.0f);  // lossy, unlike GS-TG
  EXPECT_GT(psnr(full.image, less.image), 20.0);          // but not destroyed
}

TEST(EndToEnd, SimulatorConsistentWithRendererCounters) {
  // The workload builder and the renderer must agree on the work a frame
  // contains: alpha evaluations, pair counts, bitmask and identification
  // tests, pixels.
  const Scene scene = generate_scene("train", RunScale{8, 256});
  GsTgConfig config;
  const RenderResult rendered = render_gstg(scene.cloud, scene.camera, config);
  const FrameWorkload workload = build_gstg_workload(scene.cloud, scene.camera, config);

  std::uint64_t workload_alpha = 0;
  std::size_t workload_pairs = 0, workload_bgm_tests = 0;
  for (const RasterUnit& t : workload.tiles) workload_alpha += t.alpha_evals;
  for (const SortUnit& s : workload.sorts) workload_pairs += s.n;
  for (const BgmUnit& b : workload.bgm) workload_bgm_tests += b.tests;
  EXPECT_EQ(workload_alpha, rendered.counters.alpha_computations);
  EXPECT_EQ(workload_pairs, rendered.counters.sort_pairs);
  EXPECT_EQ(workload_bgm_tests, rendered.counters.bitmask_tests);
  EXPECT_EQ(workload.ident_tests, rendered.counters.boundary_tests);
  EXPECT_EQ(workload.total_pixels, rendered.counters.total_pixels);
}

TEST(EndToEnd, SpeedupStableAcrossViews) {
  // Fig. 14's conclusion should not depend on the particular evaluation
  // viewpoint: GS-TG beats the baseline from every orbit pose.
  const Scene scene = generate_scene("truck", RunScale{8, 128});
  const auto cameras = orbit_cameras(scene, 4);
  const HwConfig hw;
  for (const Camera& cam : cameras) {
    GsTgConfig gc;
    RenderConfig bc;
    bc.tile_size = 16;
    bc.boundary = Boundary::kEllipse;
    const FrameWorkload wg = build_gstg_workload(scene.cloud, cam, gc);
    const FrameWorkload wb = build_tile_sorted_workload(scene.cloud, cam, bc, "Baseline");
    const SimReport rg = simulate_frame(wg, gstg_pipeline_model(), hw);
    const SimReport rb = simulate_frame(wb, baseline_pipeline_model(), hw);
    EXPECT_LT(rg.total_cycles, rb.total_cycles * 1.02);  // never meaningfully worse
    EXPECT_LT(rg.energy.total_j(), rb.energy.total_j() * 1.02);
  }
}

class GroupGeometrySweepTest : public ::testing::TestWithParam<int> {};

TEST_P(GroupGeometrySweepTest, SortVolumeShrinksMonotonicallyWithGroupSize) {
  // DESIGN.md ablation target: larger groups always sort less (the whole
  // premise of Fig. 11's x-axis).
  const Scene scene = generate_scene("train", RunScale{8, 256});
  const int tile = GetParam();
  std::size_t prev_pairs = SIZE_MAX;
  for (int group = tile; group <= 64 && group * group / (tile * tile) <= 64; group *= 2) {
    GsTgConfig config;
    config.tile_size = tile;
    config.group_size = group;
    FrameContext ctx;
    Renderer(config).render(scene.cloud, scene.camera, ctx);
    const std::size_t pairs = ctx.frame.group_bins.splat_ids.size();
    EXPECT_LE(pairs, prev_pairs) << "tile " << tile << " group " << group;
    prev_pairs = pairs;
  }
}

INSTANTIATE_TEST_SUITE_P(TileSizes, GroupGeometrySweepTest, ::testing::Values(8, 16));

}  // namespace
}  // namespace gstg
