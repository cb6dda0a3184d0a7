#include "gaussian/transform.h"

#include <gtest/gtest.h>

#include <cmath>

#include "../test_helpers.h"
#include "core/pipeline.h"
#include "render/framebuffer.h"

namespace gstg {
namespace {

TEST(Transform, TranslationMovesPositionsOnly) {
  GaussianCloud cloud = testutil::make_random_cloud(50, 301);
  const GaussianCloud before = cloud;
  apply_rigid_transform(cloud, Quat{}, {1.0f, -2.0f, 3.0f});
  for (std::size_t i = 0; i < cloud.size(); ++i) {
    const Vec3 d = cloud.position(i) - before.position(i);
    EXPECT_NEAR(d.x, 1.0f, 1e-5f);
    EXPECT_NEAR(d.y, -2.0f, 1e-5f);
    EXPECT_NEAR(d.z, 3.0f, 1e-5f);
    EXPECT_EQ(cloud.scale(i), before.scale(i));
  }
}

TEST(Transform, RotationTransformsCovarianceCorrectly) {
  // cov' = R cov R^T for every Gaussian.
  GaussianCloud cloud = testutil::make_random_cloud(40, 303);
  const GaussianCloud before = cloud;
  const Quat rot = from_axis_angle({1, 2, 3}, 0.7f);
  apply_rigid_transform(cloud, rot, {0, 0, 0});
  const Mat3 r = rotation_matrix(rot);
  for (std::size_t i = 0; i < cloud.size(); ++i) {
    const Mat3 expected = r * before.covariance3d(i) * r.transposed();
    const Mat3 actual = cloud.covariance3d(i);
    for (int a = 0; a < 3; ++a) {
      for (int b = 0; b < 3; ++b) {
        EXPECT_NEAR(actual(a, b), expected(a, b), 2e-3f) << "gaussian " << i;
      }
    }
  }
}

TEST(Transform, RotatedSceneWithRotatedCameraRendersSameImage) {
  // Rotating the world and the camera together is a no-op for the image —
  // an end-to-end consistency property of transform + camera + renderer.
  // (Degree-0 SH so colour has no view dependence to re-orient.)
  const Camera cam = testutil::make_camera(128, 96);
  GaussianCloud cloud = testutil::make_random_cloud(400, 307, /*sh_degree=*/0);

  RenderConfig config;
  const RenderResult reference = render_baseline(cloud, cam, config);

  const Quat rot = from_axis_angle({0, 1, 0}, 0.6f);
  apply_rigid_transform(cloud, rot, {0.5f, -0.25f, 1.0f});
  // New camera: world_to_camera' = world_to_camera * inverse(applied).
  const Mat3 rm = rotation_matrix(rot);
  Mat4 applied = Mat4::identity();
  for (int a = 0; a < 3; ++a) {
    for (int b = 0; b < 3; ++b) applied(a, b) = rm(a, b);
  }
  applied(0, 3) = 0.5f;
  applied(1, 3) = -0.25f;
  applied(2, 3) = 1.0f;
  const Mat4 new_w2c = cam.world_to_camera() * rigid_inverse(applied);
  const Camera moved(cam.width(), cam.height(), cam.fx(), cam.fy(), cam.cx(), cam.cy(), new_w2c);

  const RenderResult rotated = render_baseline(cloud, moved, config);
  // fp accumulation differs slightly (rotated covariances), so allow a
  // small tolerance rather than bit-exactness.
  EXPECT_LT(max_abs_diff(reference.image, rotated.image), 0.02f);
}

TEST(Transform, UniformScalePreservesScreenFootprint) {
  GaussianCloud cloud = testutil::make_random_cloud(30, 311);
  const GaussianCloud before = cloud;
  apply_uniform_scale(cloud, 2.0f);
  for (std::size_t i = 0; i < cloud.size(); ++i) {
    EXPECT_NEAR(cloud.position(i).x, 2.0f * before.position(i).x, 1e-5f);
    EXPECT_NEAR(cloud.scale(i).y, 2.0f * before.scale(i).y, 1e-5f);
  }
  EXPECT_THROW(apply_uniform_scale(cloud, 0.0f), std::invalid_argument);
  EXPECT_THROW(apply_uniform_scale(cloud, -1.0f), std::invalid_argument);
}

TEST(Transform, ConcatenateAppends) {
  GaussianCloud a = testutil::make_random_cloud(20, 313);
  const GaussianCloud b = testutil::make_random_cloud(30, 317);
  concatenate(a, b);
  EXPECT_EQ(a.size(), 50u);
  EXPECT_EQ(a.position(25), b.position(5));
  EXPECT_EQ(a.opacity(49), b.opacity(29));

  GaussianCloud wrong_degree(0);
  EXPECT_THROW(concatenate(wrong_degree, b), std::invalid_argument);
}

TEST(Transform, PruneByOpacityRemovesAndCompacts) {
  GaussianCloud cloud(1);
  for (int i = 0; i < 10; ++i) {
    cloud.add_solid({static_cast<float>(i), 0, 0}, {1, 1, 1}, Quat{},
                    i % 2 == 0 ? 0.9f : 0.05f, {0.5f, 0.5f, 0.5f});
  }
  const std::size_t removed = prune_by_opacity(cloud, 0.5f);
  EXPECT_EQ(removed, 5u);
  EXPECT_EQ(cloud.size(), 5u);
  for (std::size_t i = 0; i < cloud.size(); ++i) {
    EXPECT_GE(cloud.opacity(i), 0.5f);
    EXPECT_EQ(cloud.position(i).x, static_cast<float>(2 * i));  // order kept
  }
  EXPECT_EQ(cloud.sh_data().size(), cloud.size() * cloud.sh_floats_per_gaussian());
}

TEST(Transform, PruneNothingWhenAllOpaque) {
  GaussianCloud cloud = testutil::make_random_cloud(25, 331);
  EXPECT_EQ(prune_by_opacity(cloud, 0.0f), 0u);
  EXPECT_EQ(cloud.size(), 25u);
}

}  // namespace
}  // namespace gstg
