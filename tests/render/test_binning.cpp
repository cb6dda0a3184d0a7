#include "render/binning.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <set>

#include "../test_helpers.h"
#include "render/preprocess.h"

namespace gstg {
namespace {

using testutil::make_camera;

ProjectedSplat make_splat(Vec2 center, Sym2 cov, float depth = 1.0f, std::uint32_t index = 0) {
  ProjectedSplat s;
  s.center = center;
  s.cov = cov;
  s.conic = inverse(cov);
  s.depth = depth;
  s.opacity = 0.9f;
  s.rho = kThreeSigmaRho;
  s.index = index;
  return s;
}

TEST(CellGrid, CoversImageWithCeilDivision) {
  const CellGrid g = CellGrid::over_image(100, 50, 16);
  EXPECT_EQ(g.cells_x, 7);
  EXPECT_EQ(g.cells_y, 4);
  EXPECT_EQ(g.cell_count(), 28);
  EXPECT_EQ(g.cell_index(2, 1), 9);
  EXPECT_THROW(CellGrid::over_image(0, 50, 16), std::invalid_argument);
  EXPECT_THROW(CellGrid::over_image(100, 50, 0), std::invalid_argument);
}

TEST(CandidateCells, ClipsToGrid) {
  const CellGrid g = CellGrid::over_image(128, 128, 16);
  // Small circular splat centred at (24, 24), radius 3*1 = 3 px.
  const ProjectedSplat s = make_splat({24, 24}, Sym2{1, 0, 1});
  const TileRange r = candidate_cells(s, g);
  EXPECT_EQ(r.tx0, 1);
  EXPECT_EQ(r.ty0, 1);
  EXPECT_EQ(r.tx1, 2);
  EXPECT_EQ(r.ty1, 2);
  // Splat near the corner: range clipped at zero.
  const ProjectedSplat corner = make_splat({1, 1}, Sym2{4, 0, 4});
  const TileRange rc = candidate_cells(corner, g);
  EXPECT_EQ(rc.tx0, 0);
  EXPECT_EQ(rc.ty0, 0);
  EXPECT_GE(rc.count(), 1);
}

TEST(BinSplats, SmallSplatLandsInOneTile) {
  const CellGrid g = CellGrid::over_image(128, 128, 16);
  const std::vector<ProjectedSplat> splats = {make_splat({40, 40}, Sym2{0.5f, 0, 0.5f})};
  for (const Boundary b : {Boundary::kAabb, Boundary::kObb, Boundary::kEllipse}) {
    RenderCounters counters;
    const BinnedSplats bins = bin_splats(splats, g, b, 1, counters);
    EXPECT_EQ(counters.tile_pairs, 1u) << to_string(b);
    EXPECT_EQ(bins.cell_size_of(g.cell_index(2, 2)), 1u);
    EXPECT_EQ(counters.splats_multi_tile, 0u);
  }
}

TEST(BinSplats, DiagonalSplatEllipseTighterThanAabb) {
  const CellGrid g = CellGrid::over_image(160, 160, 16);
  // Strongly elongated diagonal splat (the paper's Fig. 2 situation).
  const Sym2 cov{60.0f, 55.0f, 60.0f};
  const std::vector<ProjectedSplat> splats = {make_splat({80, 80}, cov)};
  std::size_t pairs[3];
  int i = 0;
  for (const Boundary b : {Boundary::kAabb, Boundary::kObb, Boundary::kEllipse}) {
    RenderCounters counters;
    bin_splats(splats, g, b, 1, counters);
    pairs[i++] = counters.tile_pairs;
  }
  EXPECT_GT(pairs[0], pairs[1]);  // AABB > OBB
  EXPECT_GE(pairs[1], pairs[2]);  // OBB >= Ellipse
  EXPECT_GT(pairs[2], 0u);
}

TEST(BinSplats, ContainmentChainOnRealWorkload) {
  const Camera cam = make_camera();
  const GaussianCloud cloud = testutil::make_random_cloud(800, 3);
  RenderCounters pc;
  const auto splats = preprocess(cloud, cam, RenderConfig{}, pc);
  const CellGrid g = CellGrid::over_image(cam.width(), cam.height(), 16);

  RenderCounters ca, co, ce;
  const BinnedSplats aabb = bin_splats(splats, g, Boundary::kAabb, 0, ca);
  const BinnedSplats obb = bin_splats(splats, g, Boundary::kObb, 0, co);
  const BinnedSplats ell = bin_splats(splats, g, Boundary::kEllipse, 0, ce);

  EXPECT_GE(ca.tile_pairs, co.tile_pairs);
  EXPECT_GE(co.tile_pairs, ce.tile_pairs);

  // Per-cell set containment: ellipse list ⊆ obb list ⊆ aabb list.
  for (int c = 0; c < g.cell_count(); ++c) {
    std::set<std::uint32_t> sa(aabb.cell_list(c).begin(), aabb.cell_list(c).end());
    std::set<std::uint32_t> so(obb.cell_list(c).begin(), obb.cell_list(c).end());
    std::set<std::uint32_t> se(ell.cell_list(c).begin(), ell.cell_list(c).end());
    for (const auto id : se) EXPECT_TRUE(so.count(id)) << "cell " << c;
    for (const auto id : so) EXPECT_TRUE(sa.count(id)) << "cell " << c;
  }
}

TEST(BinSplats, CsrIsConsistent) {
  const Camera cam = make_camera();
  const GaussianCloud cloud = testutil::make_random_cloud(500, 11);
  RenderCounters pc;
  const auto splats = preprocess(cloud, cam, RenderConfig{}, pc);
  const CellGrid g = CellGrid::over_image(cam.width(), cam.height(), 32);
  for (const BinningMode m : {BinningMode::kFlat, BinningMode::kHierarchical}) {
    RenderCounters counters;
    const BinnedSplats bins = bin_splats(splats, g, Boundary::kEllipse, 0, counters, m);

    ASSERT_EQ(bins.offsets.size(), static_cast<std::size_t>(g.cell_count()) + 1);
    EXPECT_EQ(bins.offsets.front(), 0u);
    EXPECT_EQ(bins.offsets.back(), bins.splat_ids.size());
    EXPECT_EQ(bins.splat_ids.size(), counters.tile_pairs);
    for (std::size_t c = 0; c + 1 < bins.offsets.size(); ++c) {
      EXPECT_LE(bins.offsets[c], bins.offsets[c + 1]);
    }
    for (const std::uint32_t id : bins.splat_ids) {
      EXPECT_LT(id, splats.size());
    }
  }
}

TEST(BinSplats, DeterministicSetAcrossThreadCounts) {
  const Camera cam = make_camera();
  const GaussianCloud cloud = testutil::make_random_cloud(1000, 19);
  RenderCounters pc;
  const auto splats = preprocess(cloud, cam, RenderConfig{}, pc);
  ASSERT_GE(splats.size(), 256u);  // enough splats for the passes to run in parallel
  const CellGrid g = CellGrid::over_image(cam.width(), cam.height(), 16);

  // Flat: the identical CSR at every thread count, each cell in ascending
  // splat order.
  RenderCounters c1;
  const BinnedSplats f1 = bin_splats(splats, g, Boundary::kEllipse, 1, c1, BinningMode::kFlat);
  for (int c = 0; c < g.cell_count(); ++c) {
    const auto list = f1.cell_list(c);
    EXPECT_TRUE(std::adjacent_find(list.begin(), list.end(), std::greater_equal<>()) ==
                list.end())
        << "cell " << c << " is not in strictly ascending splat order";
  }
  for (const std::size_t threads : {2, 4}) {
    RenderCounters ct;
    const BinnedSplats ft =
        bin_splats(splats, g, Boundary::kEllipse, threads, ct, BinningMode::kFlat);
    EXPECT_EQ(ct.tile_pairs, c1.tile_pairs);
    EXPECT_EQ(ct.boundary_tests, c1.boundary_tests);
    EXPECT_EQ(ct.splats_multi_tile, c1.splats_multi_tile);
    EXPECT_EQ(ft.offsets, f1.offsets) << threads << " threads";
    EXPECT_EQ(ft.splat_ids, f1.splat_ids) << threads << " threads";
  }

  // Hierarchical: per-cell sets equal (its coarse scatter leaves the order
  // within a cell unspecified before sorting).
  RenderCounters h1c, h4c;
  const BinnedSplats h1 =
      bin_splats(splats, g, Boundary::kEllipse, 1, h1c, BinningMode::kHierarchical);
  const BinnedSplats h4 =
      bin_splats(splats, g, Boundary::kEllipse, 4, h4c, BinningMode::kHierarchical);
  EXPECT_EQ(h1c.tile_pairs, h4c.tile_pairs);
  EXPECT_EQ(h1c.boundary_tests, h4c.boundary_tests);
  EXPECT_EQ(h1c.coarse_pairs, h4c.coarse_pairs);
  ASSERT_EQ(h1.offsets, h4.offsets);
  for (int c = 0; c < g.cell_count(); ++c) {
    std::multiset<std::uint32_t> s1(h1.cell_list(c).begin(), h1.cell_list(c).end());
    std::multiset<std::uint32_t> s4(h4.cell_list(c).begin(), h4.cell_list(c).end());
    EXPECT_EQ(s1, s4);
  }
}

TEST(BinSplats, MultiTileCounterMatchesDefinition) {
  const CellGrid g = CellGrid::over_image(64, 64, 16);
  // One splat inside a single tile, one spanning several.
  const std::vector<ProjectedSplat> splats = {
      make_splat({8, 8}, Sym2{0.5f, 0, 0.5f}, 1.0f, 0),
      make_splat({32, 32}, Sym2{40.0f, 0, 40.0f}, 2.0f, 1),
  };
  RenderCounters counters;
  counters.visible_gaussians = splats.size();  // normally set by preprocess()
  bin_splats(splats, g, Boundary::kAabb, 1, counters);
  EXPECT_EQ(counters.splats_multi_tile, 1u);
  EXPECT_NEAR(counters.shared_gaussian_percent(), 50.0, 1e-9);
}

TEST(BinSplats, LargerTilesMeanFewerPairs) {
  const Camera cam = make_camera(512, 384);
  const GaussianCloud cloud = testutil::make_random_cloud(1500, 23);
  RenderCounters pc;
  const auto splats = preprocess(cloud, cam, RenderConfig{}, pc);
  std::size_t prev_pairs = SIZE_MAX;
  for (const int tile : {8, 16, 32, 64}) {
    RenderCounters counters;
    const CellGrid g = CellGrid::over_image(cam.width(), cam.height(), tile);
    bin_splats(splats, g, Boundary::kEllipse, 0, counters);
    EXPECT_LT(counters.tile_pairs, prev_pairs) << "tile " << tile;
    prev_pairs = counters.tile_pairs;
  }
}

}  // namespace
}  // namespace gstg
