// Golden-fixture regression for the dataset loaders: the committed mini
// datasets under tests/data/ (regenerated by scripts/make_test_fixtures.py)
// must load to exactly the values pinned here, the binary and text COLMAP
// serialisations must agree bit-for-bit, and loading + rendering them must
// be deterministic across repeat loads, thread counts, and SIMD backends.
#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "common/simd.h"
#include "core/pipeline.h"
#include "dataset/load_scene.h"
#include "render/simd_kernels.h"

#ifndef GSTG_TEST_DATA_DIR
#error "GSTG_TEST_DATA_DIR must point at tests/data"
#endif

namespace gstg {
namespace {

std::string data_path(const std::string& name) {
  return std::string(GSTG_TEST_DATA_DIR) + "/" + name;
}

/// DC spherical-harmonic coefficient for an 8-bit colour channel, matching
/// the standard 3D-GS SfM initialisation in dataset/colmap.cpp.
float dc_of_channel(int byte_value) {
  constexpr float kY0 = 0.28209479177387814f;
  return (static_cast<float>(byte_value) / 255.0f - 0.5f) / kY0;
}

void expect_clouds_bitwise_equal(const GaussianCloud& a, const GaussianCloud& b) {
  ASSERT_EQ(a.size(), b.size());
  ASSERT_EQ(a.sh_degree(), b.sh_degree());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.position(i).x, b.position(i).x) << i;
    EXPECT_EQ(a.position(i).y, b.position(i).y) << i;
    EXPECT_EQ(a.position(i).z, b.position(i).z) << i;
    EXPECT_EQ(a.scale(i).x, b.scale(i).x) << i;
    EXPECT_EQ(a.opacity(i), b.opacity(i)) << i;
    EXPECT_EQ(a.rotation(i).w, b.rotation(i).w) << i;
  }
  EXPECT_EQ(a.sh_data(), b.sh_data());
}

void expect_cameras_bitwise_equal(const Camera& a, const Camera& b) {
  EXPECT_EQ(a.width(), b.width());
  EXPECT_EQ(a.height(), b.height());
  EXPECT_EQ(a.fx(), b.fx());
  EXPECT_EQ(a.fy(), b.fy());
  EXPECT_EQ(a.cx(), b.cx());
  EXPECT_EQ(a.cy(), b.cy());
  for (int i = 0; i < 4; ++i) {
    for (int j = 0; j < 4; ++j) {
      EXPECT_EQ(a.world_to_camera()(i, j), b.world_to_camera()(i, j)) << i << "," << j;
    }
  }
}

TEST(DatasetGolden, ColmapBinaryExactValues) {
  const LoadedScene scene = load_scene(data_path("colmap_mini"));
  EXPECT_EQ(scene.source, "colmap-binary");

  // 12 SfM points on the fixture lattice (scripts/make_test_fixtures.py):
  // point i sits at (0.25*i - 1.5, 0.5*(i%3) - 0.5, 0.25*(i%4) + 2.0).
  ASSERT_EQ(scene.cloud.size(), 12u);
  EXPECT_EQ(scene.cloud.sh_degree(), 0);
  EXPECT_EQ(scene.cloud.position(0).x, -1.5f);
  EXPECT_EQ(scene.cloud.position(0).y, -0.5f);
  EXPECT_EQ(scene.cloud.position(0).z, 2.0f);
  EXPECT_EQ(scene.cloud.position(5).x, -0.25f);
  EXPECT_EQ(scene.cloud.position(5).y, 0.5f);
  EXPECT_EQ(scene.cloud.position(5).z, 2.25f);
  EXPECT_EQ(scene.cloud.position(11).x, 1.25f);
  EXPECT_EQ(scene.cloud.position(11).y, 0.5f);
  EXPECT_EQ(scene.cloud.position(11).z, 2.75f);

  // The standard init: opacity 0.1, identity rotation, isotropic scale from
  // the bbox extent over cbrt(n) — recomputed here with the same floats.
  const float extent = std::sqrt(2.75f * 2.75f + 1.0f * 1.0f + 0.75f * 0.75f);
  const float want_scale = std::max(0.5f * extent / std::cbrt(12.0f), 1e-4f);
  for (std::size_t i = 0; i < scene.cloud.size(); ++i) {
    EXPECT_EQ(scene.cloud.opacity(i), 0.1f) << i;
    EXPECT_EQ(scene.cloud.rotation(i).w, 1.0f) << i;
    EXPECT_EQ(scene.cloud.rotation(i).x, 0.0f) << i;
    EXPECT_EQ(scene.cloud.scale(i).x, want_scale) << i;
    EXPECT_EQ(scene.cloud.scale(i).y, want_scale) << i;
    EXPECT_EQ(scene.cloud.scale(i).z, want_scale) << i;
  }
  // Point 0 has rgb bytes (0, 5, 11); DC-only colour.
  ASSERT_EQ(scene.cloud.sh(0).size(), 3u);
  EXPECT_EQ(scene.cloud.sh(0)[0], dc_of_channel(0));
  EXPECT_EQ(scene.cloud.sh(0)[1], dc_of_channel(5));
  EXPECT_EQ(scene.cloud.sh(0)[2], dc_of_channel(11));

  // Three images in file order, referencing the two cameras.
  ASSERT_EQ(scene.cameras.size(), 3u);
  ASSERT_EQ(scene.camera_names.size(), 3u);
  EXPECT_EQ(scene.camera_names[0], "frame_000.png");
  EXPECT_EQ(scene.camera_names[1], "frame_001.png");
  EXPECT_EQ(scene.camera_names[2], "frame_002.png");

  // Image 10: PINHOLE camera 1, identity rotation, t = (0, 0, 4) — the
  // camera centre is -R^T t = (0, 0, -4).
  const Camera& cam0 = scene.cameras[0];
  EXPECT_EQ(cam0.width(), 640);
  EXPECT_EQ(cam0.height(), 480);
  EXPECT_EQ(cam0.fx(), 500.0f);
  EXPECT_EQ(cam0.fy(), 505.0f);
  EXPECT_EQ(cam0.cx(), 320.0f);
  EXPECT_EQ(cam0.cy(), 240.0f);
  EXPECT_NEAR(cam0.position().x, 0.0f, 1e-6f);
  EXPECT_NEAR(cam0.position().y, 0.0f, 1e-6f);
  EXPECT_NEAR(cam0.position().z, -4.0f, 1e-5f);
  EXPECT_EQ(cam0.world_to_camera()(0, 0), 1.0f);
  EXPECT_EQ(cam0.world_to_camera()(2, 3), 4.0f);

  // Image 11: SIMPLE_PINHOLE camera 2 (shared focal), rotated 30 degrees
  // about +y (qvec = (cos 15, 0, sin 15, 0)).
  const Camera& cam1 = scene.cameras[1];
  EXPECT_EQ(cam1.width(), 320);
  EXPECT_EQ(cam1.fx(), 300.0f);
  EXPECT_EQ(cam1.fy(), 300.0f);
  EXPECT_EQ(cam1.cx(), 160.0f);
  EXPECT_EQ(cam1.cy(), 120.0f);
  const float cos30 = std::cos(30.0f * 3.14159265f / 180.0f);
  EXPECT_NEAR(cam1.world_to_camera()(0, 0), cos30, 1e-6f);
  EXPECT_NEAR(cam1.world_to_camera()(0, 2), 0.5f, 1e-6f);
  EXPECT_NEAR(cam1.world_to_camera()(2, 0), -0.5f, 1e-6f);
  EXPECT_NEAR(cam1.world_to_camera()(1, 1), 1.0f, 1e-6f);

  // Image 12: qvec (0.5, 0.5, 0.5, 0.5) is the cyclic axis permutation
  // R = [[0,0,1],[1,0,0],[0,1,0]]; with t = (-1, 0.125, 3.75) the centre
  // -R^T t lands at (-0.125, -3.75, 1).
  const Camera& cam2 = scene.cameras[2];
  EXPECT_NEAR(cam2.position().x, -0.125f, 1e-5f);
  EXPECT_NEAR(cam2.position().y, -3.75f, 1e-5f);
  EXPECT_NEAR(cam2.position().z, 1.0f, 1e-5f);
}

TEST(DatasetGolden, BinaryAndTextSerialisationsAgreeBitwise) {
  // The text fixture writes every double at full precision, so both
  // serialisations decode to identical floats — not merely close ones.
  const LoadedScene bin = load_scene(data_path("colmap_mini"));
  const LoadedScene txt = load_scene(data_path("colmap_mini_text"));
  EXPECT_EQ(bin.source, "colmap-binary");
  EXPECT_EQ(txt.source, "colmap-text");

  expect_clouds_bitwise_equal(bin.cloud, txt.cloud);
  ASSERT_EQ(bin.cameras.size(), txt.cameras.size());
  for (std::size_t i = 0; i < bin.cameras.size(); ++i) {
    expect_cameras_bitwise_equal(bin.cameras[i], txt.cameras[i]);
  }
  EXPECT_EQ(bin.camera_names, txt.camera_names);
}

TEST(DatasetGolden, TransformsExactValues) {
  const LoadedScene scene = load_scene(data_path("transforms_mini.json"));
  EXPECT_EQ(scene.source, "transforms");

  ASSERT_EQ(scene.cameras.size(), 2u);
  EXPECT_EQ(scene.camera_names[0], "./train/r_0");
  EXPECT_EQ(scene.camera_names[1], "./train/r_1");

  // fx from camera_angle_x, computed with the reader's own float math.
  const float angle_x = static_cast<float>(0.6911112070083618);
  const float want_fx = 0.5f * 400.0f / std::tan(0.5f * angle_x);
  for (const Camera& cam : scene.cameras) {
    EXPECT_EQ(cam.width(), 400);
    EXPECT_EQ(cam.height(), 300);
    EXPECT_EQ(cam.fx(), want_fx);
    EXPECT_EQ(cam.fy(), want_fx);
    EXPECT_EQ(cam.cx(), 200.0f);
    EXPECT_EQ(cam.cy(), 150.0f);
  }

  // Frame 0: identity OpenGL pose at z = +4 looking at the origin. After
  // the GL -> CV flip the w2c rotation is diag(1, -1, -1).
  const Camera& cam0 = scene.cameras[0];
  EXPECT_NEAR(cam0.position().x, 0.0f, 1e-6f);
  EXPECT_NEAR(cam0.position().z, 4.0f, 1e-5f);
  EXPECT_EQ(cam0.world_to_camera()(0, 0), 1.0f);
  EXPECT_EQ(cam0.world_to_camera()(1, 1), -1.0f);
  EXPECT_EQ(cam0.world_to_camera()(2, 2), -1.0f);

  // Frame 1 sits on the +x axis.
  EXPECT_NEAR(scene.cameras[1].position().x, 4.0f, 1e-5f);
  EXPECT_NEAR(scene.cameras[1].position().y, 0.0f, 1e-6f);
  EXPECT_NEAR(scene.cameras[1].position().z, 0.0f, 1e-6f);

  // transforms datasets have no SfM points; the deterministic random init
  // fills the NeRF-synthetic bounds.
  EXPECT_EQ(scene.cloud.size(), 8192u);
  for (std::size_t i = 0; i < scene.cloud.size(); i += 512) {
    EXPECT_LE(std::fabs(scene.cloud.position(i).x), 1.5f);
    EXPECT_LE(std::fabs(scene.cloud.position(i).y), 1.5f);
    EXPECT_LE(std::fabs(scene.cloud.position(i).z), 1.5f);
    EXPECT_EQ(scene.cloud.opacity(i), 0.1f);
  }
}

TEST(DatasetGolden, RepeatLoadsAreBitwiseIdentical) {
  for (const char* name : {"colmap_mini", "transforms_mini.json"}) {
    const LoadedScene a = load_scene(data_path(name));
    const LoadedScene b = load_scene(data_path(name));
    expect_clouds_bitwise_equal(a.cloud, b.cloud);
    ASSERT_EQ(a.cameras.size(), b.cameras.size());
    for (std::size_t i = 0; i < a.cameras.size(); ++i) {
      expect_cameras_bitwise_equal(a.cameras[i], b.cameras[i]);
    }
  }
}

TEST(DatasetGolden, RenderOfLoadedSceneIsDeterministic) {
  // Rendering a loaded scene must not depend on thread count or SIMD
  // backend — the same bit-identity contract the synthetic scenes carry.
  const LoadedScene scene = load_scene(data_path("colmap_mini"));

  GsTgConfig reference_config;
  reference_config.threads = 1;
  reference_config.simd = {SimdBackend::kScalar};
  const RenderResult reference = render_gstg(scene.cloud, scene.cameras[0], reference_config);
  EXPECT_GT(reference.counters.visible_gaussians, 0u) << "fixture scene renders to nothing";

  for (const SimdBackend backend : available_simd_backends()) {
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      GsTgConfig config;
      config.threads = threads;
      config.simd = {backend};
      const RenderResult got = render_gstg(scene.cloud, scene.cameras[0], config);
      EXPECT_EQ(max_abs_diff(reference.image, got.image), 0.0f)
          << to_string(backend) << " threads=" << threads;
    }
  }
}

}  // namespace
}  // namespace gstg
