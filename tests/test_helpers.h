// Shared fixtures for renderer/core/sim tests: small deterministic clouds
// and cameras that exercise the full pipeline quickly, an independent
// per-tile reference pipeline, and a scoped environment-variable guard.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <random>
#include <string>
#include <vector>

#include "camera/camera.h"
#include "gaussian/cloud.h"
#include "render/binning.h"
#include "render/pipeline.h"
#include "render/preprocess.h"
#include "render/rasterize.h"
#include "render/simd_kernels.h"
#include "render/sort.h"

namespace gstg::testutil {

/// Camera 5 units from the origin looking at it, given image size.
inline Camera make_camera(int width = 256, int height = 192) {
  return Camera::from_fov(width, height, 1.2f, look_at({0.0f, 0.0f, -5.0f}, {0.0f, 0.0f, 0.0f}));
}

/// A deterministic cloud of `n` random splats spread across the camera's
/// field of view at depths 3..10, with varied anisotropy and opacity.
inline GaussianCloud make_random_cloud(std::size_t n, unsigned seed, int sh_degree = 1) {
  std::mt19937 gen(seed);
  std::uniform_real_distribution<float> xy(-2.2f, 2.2f);
  std::uniform_real_distribution<float> z(-2.0f, 5.0f);
  std::uniform_real_distribution<float> scl(0.02f, 0.35f);
  std::uniform_real_distribution<float> rot(-1.0f, 1.0f);
  std::uniform_real_distribution<float> op(0.05f, 0.98f);
  std::uniform_real_distribution<float> col(0.05f, 0.95f);
  GaussianCloud cloud(sh_degree);
  cloud.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    cloud.add_solid({xy(gen), xy(gen), z(gen)}, {scl(gen), scl(gen), scl(gen)},
                    Quat{rot(gen), rot(gen), rot(gen), rot(gen)}, op(gen),
                    {col(gen), col(gen), col(gen)});
  }
  return cloud;
}

/// A cloud with exactly one splat at the given world position.
inline GaussianCloud single_splat(Vec3 pos, Vec3 scale, float opacity, Vec3 rgb,
                                  int sh_degree = 0) {
  GaussianCloud cloud(sh_degree);
  cloud.add_solid(pos, scale, Quat{}, opacity, rgb);
  return cloud;
}

/// The baseline per-tile pipeline (paper Fig. 1, exact blending) written
/// out from the render/ stage calls: preprocess → bin_splats →
/// sort_cell_lists → rasterize_all. It shares no frame code with Renderer,
/// so it is the independent oracle for render_baseline (the r = 1 GS-TG
/// frame) and for GS-TG's losslessness. Times stay zero.
inline RenderResult reference_baseline(const GaussianCloud& cloud, const Camera& camera,
                                       const RenderConfig& config) {
  RenderResult result{Framebuffer(camera.width(), camera.height()), {}, {}, {}};
  const std::vector<ProjectedSplat> splats =
      preprocess(cloud, camera, config, result.counters);
  BinnedSplats bins =
      bin_splats(splats, CellGrid::over_image(camera.width(), camera.height(), config.tile_size),
                 config.boundary, config.threads, result.counters);
  sort_cell_lists(bins, splats, config.threads, result.counters);
  rasterize_all(bins, splats, result.image, config.threads, result.counters, config.simd);
  return result;
}

/// Expects every RenderCounters field of `got` to equal `want` exactly.
inline void expect_counters_equal(const RenderCounters& want, const RenderCounters& got) {
  EXPECT_EQ(want.input_gaussians, got.input_gaussians);
  EXPECT_EQ(want.visible_gaussians, got.visible_gaussians);
  EXPECT_EQ(want.boundary_tests, got.boundary_tests);
  EXPECT_EQ(want.tile_pairs, got.tile_pairs);
  EXPECT_EQ(want.splats_multi_tile, got.splats_multi_tile);
  EXPECT_EQ(want.sort_pairs, got.sort_pairs);
  EXPECT_EQ(want.sort_comparison_volume, got.sort_comparison_volume);
  EXPECT_EQ(want.alpha_computations, got.alpha_computations);
  EXPECT_EQ(want.blend_ops, got.blend_ops);
  EXPECT_EQ(want.early_exit_pixels, got.early_exit_pixels);
  EXPECT_EQ(want.pixel_list_work, got.pixel_list_work);
  EXPECT_EQ(want.total_pixels, got.total_pixels);
  EXPECT_EQ(want.bitmask_tests, got.bitmask_tests);
  EXPECT_EQ(want.filter_checks, got.filter_checks);
}

/// The first SIMD backend this build or CPU cannot run, or kAuto when every
/// concrete backend is available.
inline SimdBackend first_unavailable_backend() {
  const std::vector<SimdBackend>& avail = available_simd_backends();
  for (const SimdBackend b : {SimdBackend::kScalar, SimdBackend::kSse4, SimdBackend::kAvx2,
                              SimdBackend::kNeon}) {
    if (std::find(avail.begin(), avail.end(), b) == avail.end()) return b;
  }
  return SimdBackend::kAuto;
}

/// Restores one environment variable on scope exit, so a failing test
/// cannot leak a value into the rest of the suite.
class EnvGuard {
 public:
  explicit EnvGuard(const char* name) : name_(name) {
    const char* current = std::getenv(name);
    had_value_ = current != nullptr;
    if (had_value_) old_value_ = current;
  }
  ~EnvGuard() {
    if (had_value_) {
      setenv(name_.c_str(), old_value_.c_str(), 1);
    } else {
      unsetenv(name_.c_str());
    }
  }
  EnvGuard(const EnvGuard&) = delete;
  EnvGuard& operator=(const EnvGuard&) = delete;

  void set(const char* value) { ASSERT_EQ(setenv(name_.c_str(), value, 1), 0); }
  void unset() { ASSERT_EQ(unsetenv(name_.c_str()), 0); }

 private:
  std::string name_;
  bool had_value_ = false;
  std::string old_value_;
};

}  // namespace gstg::testutil
