// Persistent renderer (core/renderer.h): FrameContext reuse is bit-identical
// and allocation-free in the steady state, the raster's per-tile stats sum to
// the frame counters, render_batch matches N independent
// render_gstg calls exactly, and every group list of a rendered scene is in
// (depth, index) order with its masks, on both sides of the radix cutoff.
#include "core/renderer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <new>
#include <string>

#include "core/grouping.h"
#include "core/pipeline.h"
#include "scene/scene.h"
#include "test_helpers.h"

// --- Global allocation counter -------------------------------------------
// Counts every operator new in this binary; the steady-state test asserts
// the delta across a warmed-up render is zero. Kept trivially simple (malloc
// pass-through) so it composes with sanitizers.
//
// GCC's -Wmismatched-new-delete misfires on replaced global operators at -O2
// (it pairs an inlined `new` with the malloc inside it, then flags the
// matching free in `delete`); the pair below is consistent by construction.
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
         a.sort_pairs == b.sort_pairs && a.bitmask_tests == b.bitmask_tests &&
         a.filter_checks == b.filter_checks && a.alpha_computations == b.alpha_computations &&
         a.blend_ops == b.blend_ops && a.total_pixels == b.total_pixels;
}

/// The raster's per-tile stats (ctx.raster.tile_stats, what the
/// accelerator model reads) sum to the frame's raster counters.
void expect_tile_stats_sum_to_counters(const FrameContext& ctx, const std::string& what) {
  TileRasterStats sum;
  for (const TileRasterStats& s : ctx.raster.tile_stats) sum.accumulate(s);
  EXPECT_EQ(ctx.raster.tile_stats.size(),
            static_cast<std::size_t>(ctx.frame.tile_grid.cell_count()))
      << what;
  EXPECT_EQ(sum.alpha_computations, ctx.counters.alpha_computations) << what;
  EXPECT_EQ(sum.blend_ops, ctx.counters.blend_ops) << what;
  EXPECT_EQ(sum.early_exit_pixels, ctx.counters.early_exit_pixels) << what;
  EXPECT_EQ(sum.pixel_list_work, ctx.counters.pixel_list_work) << what;
  EXPECT_EQ(sum.pixels, ctx.counters.total_pixels) << what;
  EXPECT_GT(sum.blend_ops, 0u) << what;
}

TEST(Renderer, MatchesRenderGstg) {
  const GaussianCloud cloud = make_random_cloud(600, 42);
  const Camera camera = make_camera();
  GsTgConfig config;
  config.threads = 1;

  const RenderResult oneshot = render_gstg(cloud, camera, config);

  const Renderer renderer(config);
  FrameContext ctx;
  renderer.render(cloud, camera, ctx);

  EXPECT_TRUE(images_identical(oneshot.image, ctx.image));
  EXPECT_TRUE(counters_equal(oneshot.counters, ctx.counters));
}

TEST(Renderer, ContextReuseIsBitIdentical) {
  const GaussianCloud cloud = make_random_cloud(800, 7);
  const Camera camera = make_camera(192, 128);
  for (const PipelineMode pipeline :
       {PipelineMode::kExact, PipelineMode::kSortless, PipelineMode::kVerify}) {
    GsTgConfig config;
    config.threads = 2;
    config.pipeline = pipeline;

    const Renderer renderer(config);
    FrameContext fresh;
    renderer.render(cloud, camera, fresh);
    const Framebuffer reference = fresh.image;
    const RenderCounters ref_counters = fresh.counters;
    expect_tile_stats_sum_to_counters(fresh, to_string(pipeline));

    FrameContext reused;
    for (int round = 0; round < 3; ++round) {
      const std::string what = std::string(to_string(pipeline)) + " round " + std::to_string(round);
      renderer.render(cloud, camera, reused);
      EXPECT_TRUE(images_identical(reference, reused.image)) << what;
      EXPECT_TRUE(counters_equal(ref_counters, reused.counters)) << what;
      expect_tile_stats_sum_to_counters(reused, what);
    }
  }
}

TEST(Renderer, ContextReuseAcrossCamerasMatchesFreshContexts) {
  const GaussianCloud cloud = make_random_cloud(500, 3);
  GsTgConfig config;
  config.threads = 1;
  const Renderer renderer(config);

  // Different resolutions force the context to regrow between frames.
  const Camera cameras[] = {make_camera(256, 192), make_camera(96, 64), make_camera(160, 160)};

  FrameContext reused;
  for (const Camera& camera : cameras) {
    FrameContext fresh;
    renderer.render(cloud, camera, fresh);
    renderer.render(cloud, camera, reused);
    EXPECT_TRUE(images_identical(fresh.image, reused.image));
    EXPECT_TRUE(counters_equal(fresh.counters, reused.counters));
  }
}

TEST(Renderer, SteadyStateAllocatesNothing) {
  const GaussianCloud cloud = make_random_cloud(700, 99);
  const Camera camera = make_camera();
  for (const PipelineMode pipeline : {PipelineMode::kExact, PipelineMode::kSortless}) {
    GsTgConfig config;
    config.threads = 1;  // worker threads would allocate their own state
    config.pipeline = pipeline;
    const Renderer renderer(config);

    FrameContext ctx;
    renderer.render(cloud, camera, ctx);  // warm-up: grow every buffer
    renderer.render(cloud, camera, ctx);

    const std::size_t before = g_alloc_count.load();
    renderer.render(cloud, camera, ctx);
    const std::size_t after = g_alloc_count.load();
    EXPECT_EQ(after - before, 0u) << to_string(pipeline) << ": steady-state render allocated";
    expect_tile_stats_sum_to_counters(ctx, to_string(pipeline));
  }
}

TEST(RenderBatch, BitIdenticalToSequentialRenders) {
  const Scene scene = generate_scene("train", RunScale{8, 64});
  const auto cameras = orbit_cameras(scene, 5);
  GsTgConfig config;
  config.threads = 1;

  const BatchRenderResult batch = render_batch(scene.cloud, cameras, config);
  ASSERT_EQ(batch.images.size(), cameras.size());

  RenderCounters merged;
  for (std::size_t i = 0; i < cameras.size(); ++i) {
    const RenderResult single = render_gstg(scene.cloud, cameras[i], config);
    EXPECT_TRUE(images_identical(single.image, batch.images[i])) << "view " << i;
    EXPECT_TRUE(counters_equal(single.counters, batch.counters[i])) << "view " << i;
    merged.merge(single.counters);
  }
  EXPECT_EQ(merged.sort_pairs, batch.total.sort_pairs);
  EXPECT_EQ(merged.blend_ops, batch.total.blend_ops);
}

TEST(RenderBatch, ViewParallelismDoesNotChangeOutput) {
  const Scene scene = generate_scene("truck", RunScale{8, 64});
  const auto cameras = orbit_cameras(scene, 6);
  GsTgConfig config;
  config.threads = 1;

  BatchOptions sequential;
  sequential.view_threads = 1;
  BatchOptions parallel;
  parallel.view_threads = 3;

  const BatchRenderResult a = render_batch(scene.cloud, cameras, config, sequential);
  const BatchRenderResult b = render_batch(scene.cloud, cameras, config, parallel);
  ASSERT_EQ(a.images.size(), b.images.size());
  for (std::size_t i = 0; i < a.images.size(); ++i) {
    EXPECT_TRUE(images_identical(a.images[i], b.images[i])) << "view " << i;
    EXPECT_TRUE(counters_equal(a.counters[i], b.counters[i])) << "view " << i;
  }
}

TEST(RenderBatch, EmptyCameraListIsFine) {
  const GaussianCloud cloud = make_random_cloud(50, 1);
  GsTgConfig config;
  const BatchRenderResult result = render_batch(cloud, {}, config);
  EXPECT_TRUE(result.images.empty());
  EXPECT_EQ(result.total.sort_pairs, 0u);
}

TEST(GroupSort, RadixMatchesComparisonOnScene) {
  // Whole-pipeline check: the scene has group lists on both sides of the
  // radix cutoff, and every one is in the (depth, index) order written out
  // here, with each entry's mask still the mask of its own splat.
  const GaussianCloud cloud = make_random_cloud(900, 17);
  GsTgConfig config;
  config.threads = 1;
  FrameContext ctx;
  Renderer(config).render(cloud, make_camera(), ctx);

  const BinnedSplats& bins = ctx.frame.group_bins;
  std::size_t radix_lists = 0;
  std::size_t comparison_lists = 0;
  for (std::size_t g = 0; g + 1 < bins.offsets.size(); ++g) {
    const auto first = bins.splat_ids.begin() + bins.offsets[g];
    const auto last = bins.splat_ids.begin() + bins.offsets[g + 1];
    const std::size_t n = static_cast<std::size_t>(last - first);
    if (n >= kRadixSortCutoff) {
      ++radix_lists;
    } else if (n >= 2) {
      ++comparison_lists;
    }
    // Splat indices are unique, so (depth, index) is a total order and
    // std::sort gives it exactly (std::stable_sort would take its buffer
    // from the nothrow operator new, which this binary does not replace).
    std::vector<std::uint32_t> expected(first, last);
    std::sort(expected.begin(), expected.end(), [&](std::uint32_t a, std::uint32_t b) {
      const ProjectedSplat& sa = ctx.splats[a];
      const ProjectedSplat& sb = ctx.splats[b];
      return sa.depth < sb.depth || (sa.depth == sb.depth && sa.index < sb.index);
    });
    EXPECT_TRUE(std::equal(first, last, expected.begin())) << "group " << g;
  }
  EXPECT_GT(radix_lists, 0u);
  EXPECT_GT(comparison_lists, 0u);

  // A mask depends only on its (splat, group); regenerating them over the
  // sorted lists must reproduce the masks the sort carried along.
  RenderCounters counters;
  std::vector<TileMask> masks;
  generate_bitmasks_into(ctx.splats, bins, ctx.frame.tile_grid, ctx.frame.config, counters,
                         masks);
  EXPECT_EQ(masks, ctx.frame.masks);
}

}  // namespace
}  // namespace gstg
