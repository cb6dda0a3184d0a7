// Unit tests of perfbench's own rules: the percentile and tail
// rule, the paired ratio, seeded inputs and the GSTG_* refusal.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "harness.h"
#include "inputs.h"

namespace perfbench {
namespace {

TEST(Percentile, MatchesInclusiveInterpolation) {
  // Same values as Python's statistics.quantiles(..., method="inclusive").
  const std::vector<double> v = {4, 1, 3, 2, 5};
  EXPECT_DOUBLE_EQ(percentile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 0.25), 2.0);
  EXPECT_DOUBLE_EQ(percentile(v, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(percentile(v, 0.9), 4.6);
  EXPECT_DOUBLE_EQ(percentile(v, 1.0), 5.0);
  EXPECT_DOUBLE_EQ(median({2.0, 1.0}), 1.5);
  EXPECT_THROW((void)percentile({}, 0.5), std::invalid_argument);
}

TEST(Percentile, TailRuleNeedsTenSamplesBeyond) {
  EXPECT_EQ(min_samples_for(0.90), 100u);
  EXPECT_EQ(min_samples_for(0.95), 200u);
  EXPECT_EQ(min_samples_for(0.99), 1000u);
  std::vector<double> v(99);
  for (std::size_t i = 0; i < v.size(); ++i) v[i] = static_cast<double>(i);
  EXPECT_THROW((void)tail_percentile(v, 0.90), std::runtime_error);
  v.push_back(99.0);
  EXPECT_DOUBLE_EQ(tail_percentile(v, 0.90), 89.1);
}

TEST(PairedRatio, IsTheMedianOfPerPairRatios) {
  // Per-pair ratios 2, 1, 4: median 2. The ratio of the medians would be
  // median(4, 3, 40) / median(2, 3, 10) = 4 / 3.
  EXPECT_DOUBLE_EQ(median_paired_ratio({4, 3, 40}, {2, 3, 10}), 2.0);
  EXPECT_THROW((void)median_paired_ratio({1, 2}, {1}), std::invalid_argument);
  EXPECT_THROW((void)median_paired_ratio({1}, {0}), std::invalid_argument);
}

TEST(EnvRefusal, ListsEveryGstgVariable) {
  std::string a = "PATH=/usr/bin";
  std::string b = "GSTG_BINNING=flat";
  std::string c = "GSTG_THREADS=";
  std::string d = "XGSTG_SCALE=small";
  char* env[] = {a.data(), b.data(), c.data(), d.data(), nullptr};
  EXPECT_EQ(gstg_overrides(env), (std::vector<std::string>{"GSTG_BINNING", "GSTG_THREADS"}));
  char* clean[] = {a.data(), nullptr};
  EXPECT_TRUE(gstg_overrides(clean).empty());
}

gstg::Scene small_scene() { return gstg::generate_scene("train", gstg::RunScale{8, 64}); }

bool same_pose(const gstg::Camera& a, const gstg::Camera& b) {
  return std::memcmp(&a.world_to_camera(), &b.world_to_camera(), sizeof(gstg::Mat4)) == 0;
}

TEST(Schedule, SameSeedSameRequests) {
  const gstg::Scene scene = small_scene();
  const TourInputs a = tour_inputs(scene, 7, 30.0, 400);
  const TourInputs b = tour_inputs(scene, 7, 30.0, 400);
  const TourInputs c = tour_inputs(scene, 8, 30.0, 400);
  ASSERT_EQ(a.requests.size(), 400u);
  ASSERT_EQ(a.cameras.size(), b.cameras.size());
  for (std::size_t i = 0; i < a.cameras.size(); ++i) {
    EXPECT_TRUE(same_pose(a.cameras[i], b.cameras[i]));
  }
  bool differs = false;
  for (std::size_t i = 0; i < a.requests.size(); ++i) {
    EXPECT_EQ(a.requests[i].due_ms, b.requests[i].due_ms);
    EXPECT_EQ(a.requests[i].session, b.requests[i].session);
    EXPECT_EQ(a.requests[i].camera, b.requests[i].camera);
    differs = differs || a.requests[i].camera != c.requests[i].camera;
  }
  EXPECT_TRUE(differs);
  // The camera pool does not depend on the seed, only the draw from it.
  EXPECT_EQ(a.cameras.size(), c.cameras.size());
}

TEST(Schedule, MixAndRateAreAsDeclared) {
  const TourInputs in = tour_inputs(small_scene(), 3, 12.5, 2000);
  std::size_t sessions = 0;
  for (const TourRequest& r : in.requests) sessions += r.session != 0 ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(sessions) / 2000.0, 0.5, 0.05);
  EXPECT_NEAR(in.requests.back().due_ms / 1000.0, 2000.0 / 12.5, 2000.0 / 12.5 * 0.1);
}

TEST(Schedule, OrbitViewsFollowTheSeed) {
  const gstg::Scene scene = small_scene();
  Rng r1(5);
  Rng r2(5);
  const auto a = orbit_views(scene, 16, r1.uniform());
  const auto b = orbit_views(scene, 16, r2.uniform());
  ASSERT_EQ(a.size(), 16u);
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_TRUE(same_pose(a[i], b[i]));
  EXPECT_EQ(shuffled(16, r1), shuffled(16, r2));
  Rng r3(6);
  EXPECT_FALSE(same_pose(orbit_views(scene, 16, r3.uniform())[0], a[0]));
}

}  // namespace
}  // namespace perfbench
