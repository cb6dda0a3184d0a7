// Compressed residency (core/renderer.h + gaussian/compressed.h): the
// streamed block-decode render is bit-identical to the up-front-decode
// render on every bench scene — ResidencyMode::kVerify audits exactly that
// in-process — across thread counts and SIMD backends, with an
// allocation-free steady state.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "common/runconfig.h"
#include "core/renderer.h"
#include "gaussian/compressed.h"
#include "render/quality.h"
#include "render/simd_kernels.h"
#include "scene/scene.h"
#include "test_helpers.h"

// Global allocation counter, as in tests/core/test_renderer.cpp; see there
// for the GCC diagnostic rationale.
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

GsTgConfig config_with(ResidencyMode residency, std::size_t threads = 1) {
  GsTgConfig config;
  config.threads = threads;
  config.residency = residency;
  return config;
}

TEST(Residency, StreamedDecodeMatchesUpFrontDecodeOnBenchScenes) {
  for (const SceneInfo& info : algorithm_scenes()) {
    const Scene scene = generate_scene(info);
    const CompressedCloud compressed = CompressedCloud::encode(scene.cloud);

    FrameContext streamed;
    Renderer(config_with(ResidencyMode::kCompressed)).render(compressed, scene.camera, streamed);
    FrameContext upfront;
    Renderer(config_with(ResidencyMode::kFloat32)).render(compressed, scene.camera, upfront);
    EXPECT_TRUE(images_identical(streamed.image, upfront.image)) << info.name;
    EXPECT_TRUE(counters_equal(streamed.counters, upfront.counters)) << info.name;

    // Both must equal a plain fp32 render of the decoded cloud: the
    // compressed path changes residency, never the image.
    FrameContext plain;
    Renderer(config_with(ResidencyMode::kCompressed)).render(compressed.decode(), scene.camera,
                                                             plain);
    EXPECT_TRUE(images_identical(streamed.image, plain.image)) << info.name;
    EXPECT_TRUE(counters_equal(streamed.counters, plain.counters)) << info.name;
  }
}

TEST(Residency, KVerifyPassesOnAllBenchScenes) {
  // kVerify streams, renders the up-front-decode reference frame and throws
  // ResidencyError on any splat-stream divergence; it must pass — and
  // produce the same image — on every bench scene and thread count.
  for (const SceneInfo& info : algorithm_scenes()) {
    const Scene scene = generate_scene(info);
    const CompressedCloud compressed = CompressedCloud::encode(scene.cloud);

    FrameContext reference;
    Renderer(config_with(ResidencyMode::kCompressed)).render(compressed, scene.camera, reference);

    for (const std::size_t threads : {std::size_t{1}, std::size_t{3}}) {
      FrameContext verified;
      const Renderer renderer(config_with(ResidencyMode::kVerify, threads));
      ASSERT_NO_THROW(renderer.render(compressed, scene.camera, verified))
          << info.name << " threads=" << threads;
      EXPECT_TRUE(images_identical(reference.image, verified.image))
          << info.name << " threads=" << threads;
      EXPECT_TRUE(counters_equal(reference.counters, verified.counters))
          << info.name << " threads=" << threads;
    }
  }
}

TEST(Residency, OneReferenceFrameServesResidencyAndPipelineAudits) {
  // Residency kVerify and pipeline kVerify together audit against one
  // reference frame: the streamed splats must match it, and the shipped
  // sortless image is measured against its exact image.
  const Scene scene = generate_scene("train");
  const CompressedCloud compressed = CompressedCloud::encode(scene.cloud);

  GsTgConfig sortless = config_with(ResidencyMode::kCompressed, 2);
  sortless.pipeline = PipelineMode::kSortless;
  FrameContext shipped;
  Renderer(sortless).render(compressed, scene.camera, shipped);
  FrameContext exact;
  Renderer(config_with(ResidencyMode::kCompressed, 2)).render(compressed, scene.camera, exact);

  GsTgConfig config = config_with(ResidencyMode::kVerify, 2);
  config.pipeline = PipelineMode::kVerify;
  FrameContext verified;
  ASSERT_NO_THROW(Renderer(config).render(compressed, scene.camera, verified));
  EXPECT_TRUE(images_identical(shipped.image, verified.image));
  EXPECT_TRUE(counters_equal(shipped.counters, verified.counters));
  ASSERT_TRUE(verified.quality.measured);
  const ImageQuality expected = image_quality(exact.image, verified.image);
  EXPECT_EQ(verified.quality.psnr, expected.psnr);
  EXPECT_EQ(verified.quality.ssim, expected.ssim);
}

TEST(Residency, StreamedRenderDeterministicAcrossThreadsAndBackends) {
  const Scene scene = generate_scene("train");
  const CompressedCloud compressed = CompressedCloud::encode(scene.cloud);

  GsTgConfig reference_config = config_with(ResidencyMode::kCompressed);
  reference_config.simd = {SimdBackend::kScalar};
  FrameContext reference;
  Renderer(reference_config).render(compressed, scene.camera, reference);

  for (const SimdBackend backend : available_simd_backends()) {
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      GsTgConfig config = config_with(ResidencyMode::kCompressed, threads);
      config.simd = {backend};
      FrameContext got;
      Renderer(config).render(compressed, scene.camera, got);
      EXPECT_TRUE(images_identical(reference.image, got.image))
          << to_string(backend) << " threads=" << threads;
      EXPECT_TRUE(counters_equal(reference.counters, got.counters))
          << to_string(backend) << " threads=" << threads;
    }
  }
}

TEST(Residency, ContextReuseAcrossResidencyModesIsBitIdentical) {
  // One context cycling float32 -> compressed -> verify must keep producing
  // the reference image: scratch from one mode cannot leak into another.
  const GaussianCloud cloud = make_random_cloud(800, 7);
  const CompressedCloud compressed = CompressedCloud::encode(cloud);
  const Camera camera = make_camera(192, 128);

  FrameContext reference;
  Renderer(config_with(ResidencyMode::kCompressed)).render(compressed, camera, reference);

  FrameContext reused;
  for (const ResidencyMode mode : {ResidencyMode::kFloat32, ResidencyMode::kCompressed,
                                   ResidencyMode::kVerify, ResidencyMode::kCompressed}) {
    Renderer(config_with(mode)).render(compressed, camera, reused);
    EXPECT_TRUE(images_identical(reference.image, reused.image)) << to_string(mode);
  }
}

TEST(Residency, SteadyStateStreamedRenderAllocatesNothing) {
  // The point of decode-on-touch residency: after warm-up, rendering from
  // the fp16 form allocates nothing — the whole-cloud fp32 form never
  // materialises and the per-worker block scratch is reused.
  const CompressedCloud compressed = CompressedCloud::encode(make_random_cloud(700, 99));
  const Camera camera = make_camera();
  const Renderer renderer(config_with(ResidencyMode::kCompressed, /*threads=*/1));

  FrameContext ctx;
  renderer.render(compressed, camera, ctx);  // warm-up: grow every buffer
  renderer.render(compressed, camera, ctx);

  const std::size_t before = g_alloc_count.load();
  renderer.render(compressed, camera, ctx);
  const std::size_t after = g_alloc_count.load();
  EXPECT_EQ(after - before, 0u) << "steady-state compressed render allocated";
}

TEST(Residency, ResidencyErrorIsATypedRuntimeError) {
  const ResidencyError error("streamed decode diverged");
  EXPECT_STREQ(error.what(), "residency: streamed decode diverged");
  EXPECT_THROW(throw ResidencyError("x"), std::runtime_error);
}

}  // namespace
}  // namespace gstg
