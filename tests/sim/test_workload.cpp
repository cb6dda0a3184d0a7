#include "sim/workload.h"

#include <gtest/gtest.h>

#include <numeric>

#include "../test_helpers.h"
#include "core/pipeline.h"
#include "scene/scene.h"

namespace gstg {
namespace {

using testutil::make_camera;

struct Workloads {
  FrameWorkload gstg;
  FrameWorkload baseline;
  FrameWorkload gscore;
};

Workloads build_all(const GaussianCloud& cloud, const Camera& cam) {
  GsTgConfig gc;  // 16+64, Ellipse+Ellipse
  RenderConfig bc;
  bc.tile_size = 16;
  bc.boundary = Boundary::kEllipse;
  return {build_gstg_workload(cloud, cam, gc),
          build_tile_sorted_workload(cloud, cam, bc, "Baseline"),
          build_gscore_workload(cloud, cam, 16)};
}

class WorkloadTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    const Camera cam = make_camera(320, 240);
    const GaussianCloud cloud = testutil::make_random_cloud(2000, 111);
    all_ = new Workloads(build_all(cloud, cam));
  }
  static void TearDownTestSuite() {
    delete all_;
    all_ = nullptr;
  }
  static const Workloads& all() { return *all_; }

 private:
  static Workloads* all_;
};

Workloads* WorkloadTest::all_ = nullptr;

TEST_F(WorkloadTest, UnitCountsMatchGrids) {
  // 320x240 at tile 16 -> 20x15 tiles; at group 64 -> 5x4 groups.
  EXPECT_EQ(all().gstg.tiles.size(), 300u);
  EXPECT_EQ(all().gstg.sorts.size(), 20u);
  EXPECT_EQ(all().gstg.bgm.size(), 20u);
  EXPECT_EQ(all().baseline.tiles.size(), 300u);
  EXPECT_EQ(all().baseline.sorts.size(), 300u);
  EXPECT_TRUE(all().baseline.bgm.empty());
  EXPECT_TRUE(all().gscore.bgm.empty());
}

TEST_F(WorkloadTest, GsTgSortVolumeFarBelowBaseline) {
  const auto volume = [](const FrameWorkload& w) {
    std::size_t pairs = 0;
    for (const SortUnit& s : w.sorts) pairs += s.n;
    return pairs;
  };
  EXPECT_LT(volume(all().gstg), volume(all().baseline));
}

TEST_F(WorkloadTest, RasterWorkIdenticalBetweenGsTgAndBaseline) {
  // Lossless: the filtered per-tile sequences equal the baseline lists, so
  // measured alpha evaluations match tile by tile.
  ASSERT_EQ(all().gstg.tiles.size(), all().baseline.tiles.size());
  for (std::size_t t = 0; t < all().gstg.tiles.size(); ++t) {
    EXPECT_EQ(all().gstg.tiles[t].alpha_evals, all().baseline.tiles[t].alpha_evals) << t;
    EXPECT_EQ(all().gstg.tiles[t].raster_entries, all().baseline.tiles[t].raster_entries) << t;
    EXPECT_EQ(all().gstg.tiles[t].pixels, all().baseline.tiles[t].pixels) << t;
  }
}

TEST_F(WorkloadTest, GsTgFilterLenIsGroupListLength) {
  for (const RasterUnit& t : all().gstg.tiles) {
    EXPECT_EQ(t.filter_len, all().gstg.sorts[t.sort_unit].n);
    EXPECT_LE(t.raster_entries, t.filter_len);
  }
  for (const RasterUnit& t : all().baseline.tiles) {
    EXPECT_EQ(t.filter_len, 0u);
  }
}

TEST_F(WorkloadTest, BgmTestsBoundedBySixteenPerEntry) {
  for (const BgmUnit& b : all().gstg.bgm) {
    EXPECT_LE(b.tests, b.entries * 16u);
  }
}

TEST_F(WorkloadTest, DramTrafficSmallerForGsTg) {
  // Group-shared feature fetches beat per-tile fetches.
  EXPECT_LT(all().gstg.feature_bytes, all().baseline.feature_bytes);
  EXPECT_LT(all().gstg.list_bytes, all().baseline.list_bytes);
  // Same params and framebuffer.
  EXPECT_EQ(all().gstg.param_bytes, all().baseline.param_bytes);
  EXPECT_EQ(all().gstg.framebuffer_bytes, all().baseline.framebuffer_bytes);
  EXPECT_LT(all().gstg.total_bytes(), all().baseline.total_bytes());
}

TEST_F(WorkloadTest, GscoreSubtileSkippingReducesAlphaEvals) {
  std::uint64_t gscore_evals = 0, full_evals = 0;
  for (const RasterUnit& t : all().gscore.tiles) gscore_evals += t.alpha_evals;
  for (const RasterUnit& t : all().baseline.tiles) full_evals += t.alpha_evals;
  // GSCore (OBB binning, more pairs) still evaluates less than full-tile
  // rasterization thanks to subtile skipping.
  EXPECT_LT(gscore_evals, full_evals);
  EXPECT_GT(gscore_evals, 0u);
}

TEST_F(WorkloadTest, GscoreUsesObbSoMorePairsThanEllipse) {
  std::size_t gscore_pairs = 0, ellipse_pairs = 0;
  for (const SortUnit& s : all().gscore.sorts) gscore_pairs += s.n;
  for (const SortUnit& s : all().baseline.sorts) ellipse_pairs += s.n;
  EXPECT_GE(gscore_pairs, ellipse_pairs);
}

TEST_F(WorkloadTest, PixelTotalsConsistent) {
  EXPECT_EQ(all().gstg.total_pixels, 320u * 240u);
  EXPECT_EQ(all().baseline.total_pixels, 320u * 240u);
  EXPECT_EQ(all().gscore.total_pixels, 320u * 240u);
}

struct WorkloadSums {
  std::size_t sort_pairs = 0;
  std::size_t raster_entries = 0;
  std::uint64_t alpha_evals = 0;
};

WorkloadSums sums(const FrameWorkload& w) {
  WorkloadSums s;
  for (const SortUnit& u : w.sorts) s.sort_pairs += u.n;
  for (const RasterUnit& t : w.tiles) {
    s.raster_entries += t.raster_entries;
    s.alpha_evals += t.alpha_evals;
  }
  return s;
}

TEST(Workload, TileSortedWorkloadsMatchRenderBaseline) {
  // The baseline and GSCore workloads are read from GS-TG frames at r = 1;
  // the per-tile reference pipeline of tests/test_helpers.h is the
  // independent reference for the work they report.
  const Camera cam = make_camera(320, 240);
  const GaussianCloud cloud = testutil::make_random_cloud(2000, 111);
  for (const Boundary boundary : {Boundary::kEllipse, Boundary::kObb, Boundary::kAabb}) {
    RenderConfig bc;
    bc.tile_size = 16;
    bc.boundary = boundary;
    const RenderCounters ref = testutil::reference_baseline(cloud, cam, bc).counters;
    const FrameWorkload w = build_tile_sorted_workload(cloud, cam, bc, "Baseline");
    const WorkloadSums got = sums(w);
    const std::string what = "boundary " + std::to_string(static_cast<int>(boundary));
    EXPECT_EQ(got.sort_pairs, ref.sort_pairs) << what;
    EXPECT_EQ(got.raster_entries, ref.tile_pairs) << what;
    EXPECT_EQ(got.alpha_evals, ref.alpha_computations) << what;
    EXPECT_EQ(w.ident_tests, ref.boundary_tests) << what;
    EXPECT_EQ(w.visible_gaussians, ref.visible_gaussians) << what;
    EXPECT_EQ(w.total_pixels, ref.total_pixels) << what;
  }

  // GSCore bins with OBBs; its subtile skipping only lowers alpha evals.
  RenderConfig obb;
  obb.tile_size = 16;
  obb.boundary = Boundary::kObb;
  const RenderCounters ref = testutil::reference_baseline(cloud, cam, obb).counters;
  const FrameWorkload gscore = build_gscore_workload(cloud, cam, 16);
  const WorkloadSums got = sums(gscore);
  EXPECT_EQ(got.sort_pairs, ref.sort_pairs);
  EXPECT_EQ(got.raster_entries, ref.tile_pairs);
  EXPECT_EQ(gscore.ident_tests, ref.boundary_tests);
  EXPECT_LE(got.alpha_evals, ref.alpha_computations);
  EXPECT_GT(got.alpha_evals, 0u);
}

TEST(Workload, GscoreRejectsBadSubtileSplit) {
  const Camera cam = make_camera(64, 64);
  const GaussianCloud cloud = testutil::make_random_cloud(50, 5);
  EXPECT_THROW(build_gscore_workload(cloud, cam, 16, 5), std::invalid_argument);
  EXPECT_THROW(build_gscore_workload(cloud, cam, 16, 0), std::invalid_argument);
}

TEST(Workload, SceneLevelShapeHolds) {
  // On a synthetic paper scene, GS-TG's aggregate sort volume shrinks by
  // roughly the grouping factor (16 tiles/group) relative to the baseline —
  // allow a loose band since footprints span groups too.
  const Scene scene = generate_scene("train", RunScale{8, 256});
  GsTgConfig gc;
  RenderConfig bc;
  bc.tile_size = 16;
  bc.boundary = Boundary::kEllipse;
  const FrameWorkload g = build_gstg_workload(scene.cloud, scene.camera, gc);
  const FrameWorkload b = build_tile_sorted_workload(scene.cloud, scene.camera, bc, "Baseline");
  std::size_t gp = 0, bp = 0;
  for (const SortUnit& s : g.sorts) gp += s.n;
  for (const SortUnit& s : b.sorts) bp += s.n;
  EXPECT_LT(static_cast<double>(gp), 0.8 * static_cast<double>(bp));
  EXPECT_GT(gp, 0u);
}

}  // namespace
}  // namespace gstg
