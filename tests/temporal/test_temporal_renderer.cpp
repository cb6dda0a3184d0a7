// Temporal renderer: cross-frame group-sort reuse is pixel-exact (kVerify
// proves every reused order bit-identical to a fresh sort on the flythrough
// scenes), the cache evicts on membership/grid/cloud changes, and the
// steady state allocates nothing.
#include "temporal/temporal_renderer.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <utility>

#include "core/pipeline.h"
#include "scene/scene.h"
#include "temporal/camera_path.h"
#include "test_helpers.h"

// --- Global allocation counter -------------------------------------------
// Same construction as tests/core/test_renderer.cpp: count every operator
// new in the binary so the steady-state test can assert a zero delta.
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

GsTgConfig temporal_config(TemporalMode mode, std::size_t threads = 1) {
  GsTgConfig config;
  config.temporal = mode;
  config.threads = threads;
  return config;
}

TEST(TemporalRenderer, StaticCameraReusesEveryGroup) {
  const GaussianCloud cloud = make_random_cloud(800, 11);
  const Camera camera = make_camera(192, 128);
  TemporalRenderer renderer(temporal_config(TemporalMode::kReuse));

  const RenderResult reference = render_gstg(cloud, camera, temporal_config(TemporalMode::kOff));

  FrameContext ctx;
  renderer.render(cloud, camera, ctx);  // cold frame: everything sorts
  EXPECT_EQ(renderer.last_frame().groups_reused, 0u);
  EXPECT_GT(renderer.last_frame().groups_resorted, 0u);
  EXPECT_TRUE(images_identical(reference.image, ctx.image));

  for (int frame = 1; frame < 4; ++frame) {
    renderer.render(cloud, camera, ctx);
    const TemporalStats& stats = renderer.last_frame();
    // An identical camera keeps every membership and every depth order.
    EXPECT_EQ(stats.groups_resorted, 0u) << "frame " << frame;
    EXPECT_EQ(stats.groups_evicted, 0u) << "frame " << frame;
    EXPECT_GT(stats.groups_reused, 0u) << "frame " << frame;
    EXPECT_DOUBLE_EQ(stats.reuse_rate(), 1.0) << "frame " << frame;
    EXPECT_TRUE(images_identical(reference.image, ctx.image)) << "frame " << frame;
    EXPECT_TRUE(counters_equal(reference.counters, ctx.counters)) << "frame " << frame;
  }
  EXPECT_EQ(renderer.total().frames, 4u);
}

TEST(TemporalRenderer, VerifyModeProvesReuseOnFlythroughScenes) {
  // The lossless-invariant acceptance check: along the flythrough and orbit
  // paths of the algorithm scenes, every reused group order must re-sort to
  // the bit-identical list, and frames must match the one-shot renderer
  // exactly (images AND counters — kVerify sorts everything, so even
  // sort_comparison_volume agrees).
  for (const char* name : {"train", "playroom"}) {
    const Scene scene = generate_scene(name, RunScale{8, 64});
    for (const CameraPath& path : {orbit_path(scene, 0.05f, 4), flythrough_path(scene)}) {
      const FrameSequence sequence = path.frames(4);
      const GsTgConfig config = temporal_config(TemporalMode::kVerify);
      const TemporalSequenceResult result = render_sequence(scene.cloud, sequence, config);

      EXPECT_EQ(result.total_stats.verify_mismatches, 0u) << path.name();
      for (std::size_t f = 0; f < sequence.frame_count(); ++f) {
        const RenderResult oneshot =
            render_gstg(scene.cloud, sequence.cameras[f], temporal_config(TemporalMode::kOff));
        EXPECT_TRUE(images_identical(oneshot.image, result.images[f]))
            << path.name() << " frame " << f;
        EXPECT_TRUE(counters_equal(oneshot.counters, result.counters[f]))
            << path.name() << " frame " << f;
        EXPECT_DOUBLE_EQ(oneshot.counters.sort_comparison_volume,
                         result.counters[f].sort_comparison_volume)
            << path.name() << " frame " << f;
      }
    }
  }
}

TEST(TemporalRenderer, ReuseModeIsPixelExactAndAvoidsSortWork) {
  // Tour sampling: hold frames at each keyframe are where cross-frame
  // reuse pays (continuous motion scrambles the near-equal depths of
  // planar surfaces, so move frames mostly re-sort — by design).
  const Scene scene = generate_scene("train", RunScale{8, 64});
  const FrameSequence sequence = tour_frames(flythrough_path(scene), 1, 2);
  const GsTgConfig config = temporal_config(TemporalMode::kReuse);
  const TemporalSequenceResult result = render_sequence(scene.cloud, sequence, config);

  EXPECT_GT(result.total_stats.groups_reused, 0u);
  EXPECT_GT(result.total_stats.sorts_avoided_ratio(), 0.0);
  for (std::size_t f = 0; f < sequence.frame_count(); ++f) {
    const RenderResult oneshot =
        render_gstg(scene.cloud, sequence.cameras[f], temporal_config(TemporalMode::kOff));
    // Pixel-exact with identical work counters; only the sorting-work proxy
    // shrinks (reused groups skip their sort).
    EXPECT_TRUE(images_identical(oneshot.image, result.images[f])) << "frame " << f;
    EXPECT_TRUE(counters_equal(oneshot.counters, result.counters[f])) << "frame " << f;
    if (result.frame_stats[f].groups_reused > 0 &&
        result.frame_stats[f].groups_resorted == 0 &&
        result.frame_stats[f].groups_patched == 0) {
      EXPECT_LT(result.counters[f].sort_comparison_volume,
                oneshot.counters.sort_comparison_volume)
          << "frame " << f;
    }
  }
}

TEST(TemporalRenderer, BoundaryCrossersArePatchedNotResorted) {
  // A purely lateral camera translation keeps every view-space depth
  // bit-identical (the translation is orthogonal to the forward axis), so
  // stayer orders hold; splats whose footprint crosses a group boundary
  // join/leave groups. Those groups must take the patch path — cached
  // stayer order + sorted joiners merged in — and stay pixel-exact.
  const GaussianCloud cloud = make_random_cloud(900, 41);
  const Camera a = Camera::from_fov(256, 192, 1.2f,
                                    look_at({0.0f, 0.0f, -5.0f}, {0.0f, 0.0f, 0.0f}));
  const Camera b = Camera::from_fov(256, 192, 1.2f,
                                    look_at({0.4f, 0.0f, -5.0f}, {0.4f, 0.0f, 0.0f}));

  TemporalRenderer renderer(temporal_config(TemporalMode::kReuse));
  FrameContext ctx;
  renderer.render(cloud, a, ctx);
  renderer.render(cloud, b, ctx);
  const TemporalStats& stats = renderer.last_frame();
  EXPECT_GT(stats.groups_patched, 0u);
  EXPECT_GT(stats.groups_evicted, 0u);  // membership churned
  EXPECT_GT(stats.pairs_reused, 0u);

  const RenderResult reference = render_gstg(cloud, b, temporal_config(TemporalMode::kOff));
  EXPECT_TRUE(images_identical(reference.image, ctx.image));
  EXPECT_TRUE(counters_equal(reference.counters, ctx.counters));
}

TEST(TemporalRenderer, ReuseDecisionsAreThreadCountInvariant) {
  const Scene scene = generate_scene("playroom", RunScale{8, 64});
  const FrameSequence sequence = flythrough_path(scene).frames(4);
  const TemporalSequenceResult one =
      render_sequence(scene.cloud, sequence, temporal_config(TemporalMode::kReuse, 1));
  const TemporalSequenceResult three =
      render_sequence(scene.cloud, sequence, temporal_config(TemporalMode::kReuse, 3));
  for (std::size_t f = 0; f < sequence.frame_count(); ++f) {
    EXPECT_EQ(one.frame_stats[f].groups_reused, three.frame_stats[f].groups_reused) << f;
    EXPECT_EQ(one.frame_stats[f].groups_resorted, three.frame_stats[f].groups_resorted) << f;
    EXPECT_EQ(one.frame_stats[f].groups_evicted, three.frame_stats[f].groups_evicted) << f;
    EXPECT_TRUE(images_identical(one.images[f], three.images[f])) << f;
  }
}

TEST(TemporalRenderer, HardCutResortsInsteadOfReusing) {
  // Two very different poses: memberships and depth orders churn
  // completely. Nothing may be reused verbatim, every entry must go
  // through a real sort, and the frame stays exact.
  const GaussianCloud cloud = make_random_cloud(1200, 23);
  const Camera a = make_camera(192, 128);
  const Camera b = Camera::from_fov(192, 128, 1.2f,
                                    look_at({3.0f, 2.0f, -4.0f}, {0.0f, 0.0f, 1.0f}));

  TemporalRenderer renderer(temporal_config(TemporalMode::kReuse));
  FrameContext ctx;
  renderer.render(cloud, a, ctx);
  renderer.render(cloud, b, ctx);
  const TemporalStats& stats = renderer.last_frame();
  EXPECT_GT(stats.groups_resorted, 0u);
  EXPECT_EQ(stats.groups_reused, 0u);

  const RenderResult reference = render_gstg(cloud, b, temporal_config(TemporalMode::kOff));
  EXPECT_TRUE(images_identical(reference.image, ctx.image));
  EXPECT_TRUE(counters_equal(reference.counters, ctx.counters));
}

TEST(TemporalRenderer, ResolutionChangeInvalidatesTheCache) {
  const GaussianCloud cloud = make_random_cloud(600, 5);
  TemporalRenderer renderer(temporal_config(TemporalMode::kReuse));
  FrameContext ctx;
  renderer.render(cloud, make_camera(192, 128), ctx);
  renderer.render(cloud, make_camera(256, 192), ctx);  // different group grid
  EXPECT_EQ(renderer.last_frame().groups_reused, 0u);

  // Back on the original grid the old snapshot is gone too (it was
  // overwritten by the 256x192 frame), so nothing stale can be reused.
  renderer.render(cloud, make_camera(192, 128), ctx);
  const RenderResult reference =
      render_gstg(cloud, make_camera(192, 128), temporal_config(TemporalMode::kOff));
  EXPECT_TRUE(images_identical(reference.image, ctx.image));
}

TEST(TemporalRenderer, InvalidateDropsTheCache) {
  const GaussianCloud cloud = make_random_cloud(500, 9);
  const Camera camera = make_camera();
  TemporalRenderer renderer(temporal_config(TemporalMode::kReuse));
  FrameContext ctx;
  renderer.render(cloud, camera, ctx);
  renderer.render(cloud, camera, ctx);
  EXPECT_GT(renderer.last_frame().groups_reused, 0u);
  renderer.invalidate();
  EXPECT_EQ(renderer.total().frames, 0u);
  renderer.render(cloud, camera, ctx);
  EXPECT_EQ(renderer.last_frame().groups_reused, 0u);  // cold again
}

TEST(TemporalRenderer, OffModeMatchesThePlainRendererExactly) {
  const GaussianCloud cloud = make_random_cloud(700, 31);
  const Camera camera = make_camera();
  TemporalRenderer renderer(temporal_config(TemporalMode::kOff));
  FrameContext ctx;
  for (int frame = 0; frame < 3; ++frame) {
    renderer.render(cloud, camera, ctx);
    EXPECT_EQ(renderer.last_frame().groups_reused, 0u);
  }
  const RenderResult reference = render_gstg(cloud, camera, temporal_config(TemporalMode::kOff));
  EXPECT_TRUE(images_identical(reference.image, ctx.image));
  EXPECT_TRUE(counters_equal(reference.counters, ctx.counters));
  EXPECT_DOUBLE_EQ(reference.counters.sort_comparison_volume,
                   ctx.counters.sort_comparison_volume);
}

/// Images and counters of one frame through each library entry point,
/// every one built from a default config.
struct DefaultConfigFrames {
  Framebuffer gstg{1, 1};
  Framebuffer temporal{1, 1};
  Framebuffer baseline{1, 1};
  RenderCounters gstg_counters;
  RenderCounters temporal_counters;
  RenderCounters baseline_counters;
};

DefaultConfigFrames render_default_configs(const GaussianCloud& cloud, const Camera& camera) {
  DefaultConfigFrames out;
  FrameContext ctx;
  const Renderer renderer{GsTgConfig{}};
  renderer.render(cloud, camera, ctx);
  out.gstg = ctx.image;
  out.gstg_counters = ctx.counters;
  TemporalRenderer temporal{GsTgConfig{}};
  temporal.render(cloud, camera, ctx);
  out.temporal = ctx.image;
  out.temporal_counters = ctx.counters;
  const RenderResult baseline = render_baseline(cloud, camera, RenderConfig{});
  out.baseline = baseline.image;
  out.baseline_counters = baseline.counters;
  return out;
}

TEST(LibraryEnv, ModeKnobsDoNotReachTheRenderers) {
  // The library renders the config it is given: only process edges apply
  // GSTG_* mode knobs (resolve_from_env), so a lossy pipeline in the
  // environment changes nothing here.
  const GaussianCloud cloud = make_random_cloud(700, 43);
  const Camera camera = make_camera();
  const DefaultConfigFrames plain = render_default_configs(cloud, camera);

  testutil::EnvGuard pipeline("GSTG_PIPELINE");
  pipeline.set("sortless");
  const DefaultConfigFrames with_env = render_default_configs(cloud, camera);

  EXPECT_TRUE(images_identical(plain.gstg, with_env.gstg));
  EXPECT_TRUE(images_identical(plain.temporal, with_env.temporal));
  EXPECT_TRUE(images_identical(plain.baseline, with_env.baseline));
  for (const auto& [a, b] : {std::pair{plain.gstg_counters, with_env.gstg_counters},
                             std::pair{plain.temporal_counters, with_env.temporal_counters},
                             std::pair{plain.baseline_counters, with_env.baseline_counters}}) {
    EXPECT_TRUE(counters_equal(a, b));
    EXPECT_EQ(a.boundary_tests, b.boundary_tests);
  }
  EXPECT_GT(with_env.gstg_counters.sort_pairs, 0u);  // still the exact pipeline
}

TEST(TemporalRenderer, SteadyStateAllocatesNothing) {
  const GaussianCloud cloud = make_random_cloud(700, 77);
  const Camera camera = make_camera();
  TemporalRenderer renderer(temporal_config(TemporalMode::kReuse, 1));

  FrameContext ctx;
  renderer.render(cloud, camera, ctx);  // cold: grow every buffer + cache
  renderer.render(cloud, camera, ctx);  // warm the reuse path's buffers

  const std::size_t before = g_alloc_count.load();
  renderer.render(cloud, camera, ctx);
  const std::size_t after = g_alloc_count.load();
  EXPECT_EQ(after - before, 0u) << "steady-state temporal render allocated";
}

}  // namespace
}  // namespace gstg
