// Sortless pipeline (PipelineMode::kSortless / kVerify): the
// order-independent transmittance path never sorts, is bit-deterministic
// across thread counts, SIMD backends and splat-list permutations, meets
// the committed PSNR/SSIM floor on every bench scene, bypasses the temporal
// cache cleanly, and rejects the contradictory sortless + temporal-kVerify
// configuration with a typed error.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <new>
#include <numeric>
#include <random>
#include <stdexcept>

#include "core/pipeline.h"
#include "core/renderer.h"
#include "render/preprocess.h"
#include "render/quality.h"
#include "render/rasterize.h"
#include "render/simd_kernels.h"
#include "scene/scene.h"
#include "temporal/temporal_renderer.h"
#include "test_helpers.h"

// --- Global allocation counter -------------------------------------------
// Counts every operator new in this binary; the steady-state test asserts
// the delta across a warmed-up sortless render is zero. Same idiom as
// tests/core/test_renderer.cpp (see the note there about the GCC
// -Wmismatched-new-delete false positive).
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
namespace {
std::atomic<std::size_t> g_alloc_count{0};
}  // namespace

void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace gstg {
namespace {

using testutil::make_camera;
using testutil::make_random_cloud;

bool images_identical(const Framebuffer& a, const Framebuffer& b) {
  return a.width() == b.width() && a.height() == b.height() && max_abs_diff(a, b) == 0.0f;
}

bool counters_equal(const RenderCounters& a, const RenderCounters& b) {
  return a.visible_gaussians == b.visible_gaussians && a.tile_pairs == b.tile_pairs &&
         a.sort_pairs == b.sort_pairs &&
         a.sort_comparison_volume == b.sort_comparison_volume &&
         a.alpha_computations == b.alpha_computations && a.blend_ops == b.blend_ops &&
         a.early_exit_pixels == b.early_exit_pixels && a.total_pixels == b.total_pixels;
}

GsTgConfig sortless_config(std::size_t threads = 1) {
  GsTgConfig config;
  config.threads = threads;
  config.pipeline = PipelineMode::kSortless;
  return config;
}

TEST(Sortless, NeverSortsAndNeverEarlyExits) {
  const GaussianCloud cloud = make_random_cloud(800, 11);
  const Camera camera = make_camera();

  const RenderResult sortless = render_gstg(cloud, camera, sortless_config());
  EXPECT_EQ(sortless.counters.sort_pairs, 0u);
  EXPECT_EQ(sortless.counters.sort_comparison_volume, 0.0);
  // Transmittance early exit would reintroduce order dependence.
  EXPECT_EQ(sortless.counters.early_exit_pixels, 0u);
  EXPECT_FALSE(sortless.quality.measured);

  GsTgConfig exact;
  exact.threads = 1;
  const RenderResult reference = render_gstg(cloud, camera, exact);
  EXPECT_GT(reference.counters.sort_pairs, 0u);
  // Same culling/binning front end: only the blending discipline differs.
  EXPECT_EQ(sortless.counters.visible_gaussians, reference.counters.visible_gaussians);
  EXPECT_EQ(sortless.counters.tile_pairs, reference.counters.tile_pairs);
}

TEST(Sortless, BitIdenticalAcrossThreadCounts) {
  const GaussianCloud cloud = make_random_cloud(900, 23);
  const Camera camera = make_camera(192, 160);

  const RenderResult one = render_gstg(cloud, camera, sortless_config(1));
  for (const std::size_t threads : {2u, 4u}) {
    const RenderResult many = render_gstg(cloud, camera, sortless_config(threads));
    EXPECT_TRUE(images_identical(one.image, many.image)) << threads << " threads";
    EXPECT_TRUE(counters_equal(one.counters, many.counters)) << threads << " threads";
  }
}

TEST(Sortless, BitIdenticalAcrossSimdBackends) {
  const GaussianCloud cloud = make_random_cloud(700, 5);
  const Camera camera = make_camera();

  GsTgConfig scalar = sortless_config();
  scalar.simd.backend = SimdBackend::kScalar;
  const RenderResult reference = render_gstg(cloud, camera, scalar);

  for (const SimdBackend backend : available_simd_backends()) {
    if (backend == SimdBackend::kScalar) continue;
    GsTgConfig config = sortless_config();
    config.simd.backend = backend;
    const RenderResult result = render_gstg(cloud, camera, config);
    EXPECT_TRUE(images_identical(reference.image, result.image)) << to_string(backend);
    EXPECT_TRUE(counters_equal(reference.counters, result.counters)) << to_string(backend);
  }
}

TEST(Sortless, TileKernelIsOrderIndependent) {
  const GaussianCloud cloud = make_random_cloud(400, 77);
  const Camera camera = make_camera(64, 64);
  RenderConfig config;
  RenderCounters counters;
  const std::vector<ProjectedSplat> splats = preprocess(cloud, camera, config, counters);
  ASSERT_GT(splats.size(), 8u);

  std::vector<std::uint32_t> order(splats.size());
  std::iota(order.begin(), order.end(), 0u);

  Framebuffer forward(64, 64);
  SortlessRasterScratch scratch;
  const TileRasterStats ref =
      rasterize_tile_sortless(splats, order, 0, 0, 64, 64, forward, scratch);

  std::mt19937 gen(123);
  for (int round = 0; round < 3; ++round) {
    std::shuffle(order.begin(), order.end(), gen);
    Framebuffer shuffled(64, 64);
    const TileRasterStats stats =
        rasterize_tile_sortless(splats, order, 0, 0, 64, 64, shuffled, scratch);
    EXPECT_TRUE(images_identical(forward, shuffled)) << "round " << round;
    EXPECT_EQ(ref.alpha_computations, stats.alpha_computations);
    EXPECT_EQ(ref.blend_ops, stats.blend_ops);
    EXPECT_EQ(stats.early_exit_pixels, 0u);
  }
}

TEST(Sortless, VerifyShipsSortlessImageAndMeasuresQuality) {
  const GaussianCloud cloud = make_random_cloud(600, 31);
  const Camera camera = make_camera();

  const RenderResult sortless = render_gstg(cloud, camera, sortless_config());
  GsTgConfig verify_config = sortless_config();
  verify_config.pipeline = PipelineMode::kVerify;
  const RenderResult verify = render_gstg(cloud, camera, verify_config);

  // kVerify ships the sortless image and counters; the exact reference
  // frame and its work stay out of the shipped record.
  EXPECT_TRUE(images_identical(sortless.image, verify.image));
  EXPECT_TRUE(counters_equal(sortless.counters, verify.counters));

  ASSERT_TRUE(verify.quality.measured);
  GsTgConfig exact;
  exact.threads = 1;
  const RenderResult reference = render_gstg(cloud, camera, exact);
  const ImageQuality expected = image_quality(reference.image, sortless.image);
  EXPECT_EQ(verify.quality.psnr, expected.psnr);
  EXPECT_EQ(verify.quality.ssim, expected.ssim);
}

TEST(Sortless, BenchScenesMeetCommittedFloor) {
  for (const char* name : {"train", "truck", "drjohnson", "playroom"}) {
    const Scene scene = generate_scene(name, RunScale{8, 64});
    GsTgConfig config;
    config.pipeline = PipelineMode::kVerify;
    const RenderResult result = render_gstg(scene.cloud, scene.camera, config);
    ASSERT_TRUE(result.quality.measured) << name;
    EXPECT_EQ(result.counters.sort_pairs, 0u) << name;
    EXPECT_TRUE(meets_floor(result.quality, quality_floor(name)))
        << name << ": psnr " << result.quality.psnr << ", ssim " << result.quality.ssim;
  }
}

TEST(Sortless, TemporalVerifyCombinationIsRejected) {
  for (const PipelineMode pipeline : {PipelineMode::kSortless, PipelineMode::kVerify}) {
    GsTgConfig config;
    config.pipeline = pipeline;
    config.temporal = TemporalMode::kVerify;
    EXPECT_THROW(config.validate(), std::invalid_argument);
    EXPECT_THROW(Renderer{config}, std::invalid_argument);
    EXPECT_THROW(TemporalRenderer{config}, std::invalid_argument);
  }
}

TEST(Sortless, TemporalRendererBypassesCacheCleanly) {
  const Scene scene = generate_scene("train", RunScale{8, 64});
  const std::vector<Camera> cameras = orbit_cameras(scene, 4);

  GsTgConfig config = sortless_config();
  config.temporal = TemporalMode::kReuse;

  TemporalRenderer temporal(config);
  const Renderer plain(config);
  FrameContext temporal_ctx;
  FrameContext plain_ctx;
  for (std::size_t i = 0; i < cameras.size(); ++i) {
    temporal.render(scene.cloud, cameras[i], temporal_ctx);
    plain.render(scene.cloud, cameras[i], plain_ctx);
    EXPECT_TRUE(images_identical(plain_ctx.image, temporal_ctx.image)) << "frame " << i;
    EXPECT_TRUE(counters_equal(plain_ctx.counters, temporal_ctx.counters)) << "frame " << i;
    // The cross-frame cache is never consulted: no reuse, no sorting.
    EXPECT_EQ(temporal.last_frame().frames, 1u);
    EXPECT_EQ(temporal.last_frame().groups_total, 0u);
    EXPECT_EQ(temporal.last_frame().pairs_reused, 0u);
    EXPECT_EQ(temporal.last_frame().pairs_sorted, 0u);
  }
  EXPECT_EQ(temporal.total().frames, cameras.size());
  EXPECT_EQ(temporal.total().pairs_reused, 0u);
  EXPECT_EQ(temporal.total().pairs_sorted, 0u);
}

TEST(Sortless, SteadyStateAllocatesNothing) {
  const GaussianCloud cloud = make_random_cloud(700, 99);
  const Camera camera = make_camera();
  GsTgConfig config = sortless_config(1);  // worker threads would allocate
  const Renderer renderer(config);

  FrameContext ctx;
  renderer.render(cloud, camera, ctx);  // warm-up: grow every buffer
  renderer.render(cloud, camera, ctx);

  const std::size_t before = g_alloc_count.load();
  renderer.render(cloud, camera, ctx);
  const std::size_t after = g_alloc_count.load();
  EXPECT_EQ(after - before, 0u) << "steady-state sortless render allocated";
}

}  // namespace
}  // namespace gstg
