// SIMD layer tests: backend detection and dispatch, the exp_exact identity
// with std::exp, and the per-backend consistency suite — every available
// backend must produce bit-identical framebuffers and counters across the
// lossless sweep scenes.
#include "common/simd.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>

#include "../test_helpers.h"
#include "camera/ewa.h"
#include "core/pipeline.h"
#include "gaussian/sh.h"
#include "geometry/ellipse.h"
#include "render/preprocess.h"
#include "render/simd_kernels.h"
#include "scene/scene.h"

namespace gstg {
namespace {

using testutil::make_camera;

// --- naming / detection ----------------------------------------------------

TEST(SimdBackendNames, ScalarAlwaysAvailable) {
  const auto& avail = available_simd_backends();
  ASSERT_FALSE(avail.empty());
  EXPECT_EQ(avail.front(), SimdBackend::kScalar);
  for (const SimdBackend b : avail) {
    EXPECT_TRUE(cpu_supports(b)) << to_string(b);
    EXPECT_EQ(simd_kernels(b).backend, b);
    EXPECT_GE(simd_kernels(b).lane_width, 1);
  }
}

TEST(SimdDispatch, ResolveNeverReturnsAuto) {
  for (const SimdBackend req : available_simd_backends()) {
    EXPECT_EQ(resolve_simd_backend(req), req);
  }
  // The widest verified backend is what kAuto uses.
  EXPECT_EQ(resolve_simd_backend(SimdBackend::kAuto), widest_verified_backend());
  EXPECT_NE(widest_verified_backend(), SimdBackend::kAuto);

  const SimdBackend missing = testutil::first_unavailable_backend();
  if (missing == SimdBackend::kAuto) GTEST_SKIP() << "every SIMD backend is available";
  EXPECT_THROW((void)resolve_simd_backend(missing), ConfigError) << to_string(missing);
}

TEST(SimdDispatch, LibraryIgnoresTheEnvironment) {
  // GSTG_SIMD is applied to a config at process edges (resolve_from_env);
  // kAuto resolution inside the library never reads it.
  testutil::EnvGuard simd("GSTG_SIMD");
  simd.set("scalar");
  EXPECT_EQ(resolve_simd_backend(SimdBackend::kAuto), widest_verified_backend());
}

TEST(SimdDispatch, SimdKernelsThrowsOnAuto) {
  EXPECT_THROW(simd_kernels(SimdBackend::kAuto), std::invalid_argument);
}

// --- exp_exact contract ----------------------------------------------------

/// exp_exact's promise for one input: the bits of std::exp on glibc (the
/// port is glibc's expf), within 1 ULP elsewhere.
bool exp_exact_ok(float got, float want) {
#if defined(__GLIBC__)
  return std::bit_cast<std::uint32_t>(got) == std::bit_cast<std::uint32_t>(want);
#else
  return got == want || got == std::nextafter(want, 0.0f) || got == std::nextafter(want, 1.0f);
#endif
}

TEST(ExpExact, MatchesStdExpOnStridedSample) {
  // Every 97th float of [-16, 0] (~11M inputs); test_exp_exhaustive covers
  // all of them.
  const std::uint32_t lo = std::bit_cast<std::uint32_t>(-0.0f);
  const std::uint32_t hi = std::bit_cast<std::uint32_t>(-16.0f);
  std::size_t bad = 0;
  float first_bad = 0.0f;
  for (std::uint32_t u = lo; u <= hi; u += 97) {
    const float x = std::bit_cast<float>(u);
    if (!exp_exact_ok(exp_exact<1>(VecF32<1>::broadcast(x)).v[0], std::exp(x))) {
      if (bad++ == 0) first_bad = x;
    }
  }
  EXPECT_EQ(bad, 0u) << "first mismatch at x = " << first_bad;
}

TEST(ExpExact, EveryLaneWidthAgreesAndOutOfRangeLanesAreStdExp) {
  constexpr float kNan = std::numeric_limits<float>::quiet_NaN();
  constexpr float kInf = std::numeric_limits<float>::infinity();
  const float xs[] = {0.0f,   -0.0f,   -1e-30f, -0.5f,  -5.55f, -15.999999f, -16.0f, -16.000002f,
                      -63.1f, -87.0f,  -104.0f, 0.25f,  88.0f,  100.0f,      kInf,   -kInf,
                      kNan,   -1e-45f, -3.0f,   -7.25f, -9.9f,  -12.5f,      -1.0f,  -2.0f};
  constexpr std::size_t kCount = sizeof(xs) / sizeof(xs[0]);
  static_assert(kCount % 8 == 0);
  for (std::size_t base = 0; base < kCount; base += 8) {
    const VecF32<8> w8 = exp_exact<8>(VecF32<8>::load(&xs[base]));
    const VecF32<4> w4a = exp_exact<4>(VecF32<4>::load(&xs[base]));
    const VecF32<4> w4b = exp_exact<4>(VecF32<4>::load(&xs[base + 4]));
    for (std::size_t i = 0; i < 8; ++i) {
      const float x = xs[base + i];
      const float w1 = exp_exact<1>(VecF32<1>::broadcast(x)).v[0];
      const float w4 = i < 4 ? w4a.v[i] : w4b.v[i - 4];
      EXPECT_EQ(std::bit_cast<std::uint32_t>(w8.v[i]), std::bit_cast<std::uint32_t>(w1))
          << "x = " << x;
      EXPECT_EQ(std::bit_cast<std::uint32_t>(w4), std::bit_cast<std::uint32_t>(w1))
          << "x = " << x;
      if (!(x >= -16.0f && x <= 0.0f)) {
        // Outside the port's range every lane is std::exp itself.
        const float want = std::exp(x);
        EXPECT_TRUE(std::bit_cast<std::uint32_t>(w1) == std::bit_cast<std::uint32_t>(want) ||
                    (std::isnan(w1) && std::isnan(want)))
            << "x = " << x;
      } else {
        EXPECT_TRUE(exp_exact_ok(w1, std::exp(x))) << "x = " << x;
      }
    }
  }
}

// --- per-backend consistency across the lossless sweep scenes --------------

struct SweepScene {
  const char* name;
  int width, height;
  std::size_t gaussians;
  unsigned seed;
};

const SweepScene kSweep[] = {
    {"random_small", 240, 176, 1200, 91},
    {"random_edge", 250, 187, 900, 97},  // non-multiple image sizes
};

/// Renders the GS-TG pipeline under one SIMD policy.
RenderResult render_with(const SweepScene& sc, SimdPolicy simd) {
  const Camera cam = make_camera(sc.width, sc.height);
  const GaussianCloud cloud = testutil::make_random_cloud(sc.gaussians, sc.seed);
  GsTgConfig config;
  config.simd = simd;
  return render_gstg(cloud, cam, config);
}

TEST(SimdBackendConsistency, ExactModeIsBitIdenticalAcrossBackends) {
  for (const SweepScene& sc : kSweep) {
    const RenderResult ref = render_with(sc, {SimdBackend::kScalar});
    for (const SimdBackend b : available_simd_backends()) {
      const RenderResult got = render_with(sc, {b});
      // Bitwise framebuffer equality, not just value equality.
      ASSERT_EQ(ref.image.pixels().size(), got.image.pixels().size());
      EXPECT_EQ(std::memcmp(ref.image.pixels().data(), got.image.pixels().data(),
                            ref.image.pixels().size() * sizeof(Vec3)),
                0)
          << sc.name << " backend " << to_string(b);
      EXPECT_EQ(ref.counters.alpha_computations, got.counters.alpha_computations)
          << sc.name << " backend " << to_string(b);
      EXPECT_EQ(ref.counters.blend_ops, got.counters.blend_ops);
      EXPECT_EQ(ref.counters.early_exit_pixels, got.counters.early_exit_pixels);
      EXPECT_EQ(ref.counters.visible_gaussians, got.counters.visible_gaussians);
      EXPECT_EQ(ref.counters.tile_pairs, got.counters.tile_pairs);
      EXPECT_EQ(ref.counters.sort_pairs, got.counters.sort_pairs);
    }
  }
}

TEST(SimdBackendConsistency, ExactModeMatchesBaselinePipelineToo) {
  // The baseline tile pipeline takes the same knob; cross-check one scene.
  const Camera cam = make_camera(240, 176);
  const GaussianCloud cloud = testutil::make_random_cloud(1000, 17);
  RenderConfig scalar_cfg;
  scalar_cfg.simd = {SimdBackend::kScalar};
  const RenderResult ref = render_baseline(cloud, cam, scalar_cfg);
  for (const SimdBackend b : available_simd_backends()) {
    RenderConfig cfg;
    cfg.simd = {b};
    const RenderResult got = render_baseline(cloud, cam, cfg);
    EXPECT_EQ(max_abs_diff(ref.image, got.image), 0.0f) << to_string(b);
    EXPECT_EQ(ref.counters.alpha_computations, got.counters.alpha_computations);
  }
}

TEST(SimdBackendConsistency, GstgStaysLosslessUnderEveryBackend) {
  // The paper's lossless claim must hold per backend: baseline vs GS-TG,
  // both running the same backend.
  const Camera cam = make_camera(200, 152);
  const GaussianCloud cloud = testutil::make_random_cloud(800, 23);
  for (const SimdBackend b : available_simd_backends()) {
    RenderConfig base;
    base.simd = {b};
    const RenderResult ref = render_baseline(cloud, cam, base);
    GsTgConfig config;
    config.simd = {b};
    const RenderResult ours = render_gstg(cloud, cam, config);
    EXPECT_EQ(max_abs_diff(ref.image, ours.image), 0.0f) << to_string(b);
  }
}

TEST(SimdBackendConsistency, PreprocessMatchesScalarReferenceFunctions) {
  // The lane kernels replicate the canonical scalar math (Camera::to_view /
  // in_frustum / view_to_pixel, GaussianCloud::covariance3d,
  // project_covariance, Sym2 inverse, eval_sh_color) operation for
  // operation. This test ties the two together bit-exactly: a change to any
  // reference function that is not mirrored in simd_kernels.inl fails here.
  const Camera cam = make_camera();
  const GaussianCloud cloud = testutil::make_random_cloud(400, 57);
  const Vec3 cam_pos = cam.position();

  for (const SimdBackend b : available_simd_backends()) {
    RenderConfig config;
    config.simd = {b};
    RenderCounters counters;
    const auto splats = preprocess(cloud, cam, config, counters);
    ASSERT_GT(splats.size(), 50u) << to_string(b);

    // Survivor set: exactly the gaussians the reference predicates keep.
    std::size_t expected = 0;
    for (std::size_t i = 0; i < cloud.size(); ++i) {
      const Vec3 view = cam.to_view(cloud.position(i));
      if (!cam.in_frustum(view)) continue;
      if (cloud.opacity(i) < kAlphaThreshold) continue;
      if (project_covariance(cam, cloud.covariance3d(i), view).determinant() <= 0.0f) continue;
      ++expected;
    }
    EXPECT_EQ(splats.size(), expected) << to_string(b);

    for (const ProjectedSplat& s : splats) {
      const std::size_t i = s.index;
      const Vec3 view = cam.to_view(cloud.position(i));
      const Sym2 cov = project_covariance(cam, cloud.covariance3d(i), view);
      EXPECT_EQ(s.cov, cov) << to_string(b) << " index " << i;
      EXPECT_EQ(s.conic, inverse(cov)) << to_string(b) << " index " << i;
      EXPECT_EQ(s.center, cam.view_to_pixel(view)) << to_string(b) << " index " << i;
      EXPECT_EQ(s.depth, view.z);
      EXPECT_EQ(s.opacity, cloud.opacity(i));
      EXPECT_EQ(s.rho, kThreeSigmaRho);
      EXPECT_EQ(s.rgb,
                eval_sh_color(cloud.sh_degree(), cloud.sh(i), normalized(cloud.position(i) - cam_pos)));
    }
  }
}

TEST(SimdBackendConsistency, SyntheticSceneRecipeBitIdentical) {
  // One real scene recipe (tiny scale) through every backend.
  const Scene scene = generate_scene("train", RunScale{8, 512});
  GsTgConfig scalar_cfg;
  scalar_cfg.simd = {SimdBackend::kScalar};
  const RenderResult ref = render_gstg(scene.cloud, scene.camera, scalar_cfg);
  for (const SimdBackend b : available_simd_backends()) {
    GsTgConfig cfg;
    cfg.simd = {b};
    const RenderResult got = render_gstg(scene.cloud, scene.camera, cfg);
    EXPECT_EQ(max_abs_diff(ref.image, got.image), 0.0f) << to_string(b);
  }
}

}  // namespace
}  // namespace gstg
