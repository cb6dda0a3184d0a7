#include "core/grouping.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <limits>
#include <set>
#include <string>

#include "../test_helpers.h"
#include "core/renderer.h"
#include "render/preprocess.h"
#include "render/simd_kernels.h"
#include "render/sort.h"

namespace gstg {
namespace {

using testutil::make_camera;

/// One exact frame through the persistent renderer; its splats, sorted
/// group lists and masks are the stage products the tests below probe.
FrameContext rendered_frame(const GaussianCloud& cloud, const Camera& cam,
                            const GsTgConfig& config) {
  FrameContext ctx;
  Renderer(config).render(cloud, cam, ctx);
  return ctx;
}

TEST(GsTgConfig, ValidatesGeometry) {
  GsTgConfig ok;
  EXPECT_NO_THROW(ok.validate());
  EXPECT_EQ(ok.tiles_per_side(), 4);
  EXPECT_EQ(ok.tiles_per_group(), 16);

  GsTgConfig misaligned;
  misaligned.tile_size = 16;
  misaligned.group_size = 40;  // not a multiple
  EXPECT_THROW(misaligned.validate(), std::invalid_argument);

  GsTgConfig too_many;
  too_many.tile_size = 8;
  too_many.group_size = 128;  // 256 tiles per group > 64-bit mask
  EXPECT_THROW(too_many.validate(), std::invalid_argument);

  GsTgConfig negative;
  negative.tile_size = 0;
  EXPECT_THROW(negative.validate(), std::invalid_argument);

  GsTgConfig eight64;  // the Fig. 11 "8+64" point: exactly 64 tiles
  eight64.tile_size = 8;
  eight64.group_size = 64;
  EXPECT_NO_THROW(eight64.validate());
  EXPECT_EQ(eight64.tiles_per_group(), 64);
}

TEST(GsTgConfig, RejectedGeometryThrowsConfigError) {
  const auto rejects = [](const char* what, auto&& edit) {
    GsTgConfig c;
    edit(c);
    EXPECT_THROW(c.validate(), ConfigError) << what;
  };
  rejects("zero tile size", [](GsTgConfig& c) { c.tile_size = 0; });
  rejects("negative group size", [](GsTgConfig& c) { c.group_size = -64; });
  rejects("misaligned group", [](GsTgConfig& c) { c.group_size = 40; });
  rejects("more than 64 tiles per group", [](GsTgConfig& c) {
    c.tile_size = 8;
    c.group_size = 128;
  });
  rejects("temporal verify without the exact pipeline", [](GsTgConfig& c) {
    c.pipeline = PipelineMode::kSortless;
    c.temporal = TemporalMode::kVerify;
  });
}

TEST(GsTgConfig, LosslessGuaranteeMatrix) {
  GsTgConfig c;
  const auto set = [&](Boundary group, Boundary mask) {
    c.group_boundary = group;
    c.mask_boundary = mask;
    return c.lossless_guaranteed();
  };
  // Mask at least as tight as group: guaranteed.
  EXPECT_TRUE(set(Boundary::kAabb, Boundary::kAabb));
  EXPECT_TRUE(set(Boundary::kAabb, Boundary::kObb));
  EXPECT_TRUE(set(Boundary::kAabb, Boundary::kEllipse));
  EXPECT_TRUE(set(Boundary::kObb, Boundary::kObb));
  EXPECT_TRUE(set(Boundary::kObb, Boundary::kEllipse));
  EXPECT_TRUE(set(Boundary::kEllipse, Boundary::kEllipse));
  // Looser mask than group: not guaranteed.
  EXPECT_FALSE(set(Boundary::kEllipse, Boundary::kAabb));
  EXPECT_FALSE(set(Boundary::kEllipse, Boundary::kObb));
  EXPECT_FALSE(set(Boundary::kObb, Boundary::kAabb));
}

TEST(MaskBits, IndexLayout) {
  EXPECT_EQ(mask_bit_index(0, 0, 4), 0);
  EXPECT_EQ(mask_bit_index(3, 0, 4), 3);
  EXPECT_EQ(mask_bit_index(0, 1, 4), 4);
  EXPECT_EQ(mask_bit_index(3, 3, 4), 15);
  EXPECT_EQ(mask_bit_index(7, 7, 8), 63);
}

/// The central set property behind losslessness (paper section IV-B): for
/// every tile, { splats with the tile's bit set in their group entry } ==
/// { splats in the baseline per-tile list with the same boundary }.
TEST(Bitmasks, FilteredSetsEqualBaselineTileSets) {
  const Camera cam = make_camera(320, 256);
  const GaussianCloud cloud = testutil::make_random_cloud(1200, 61);
  GsTgConfig config;
  config.tile_size = 16;
  config.group_size = 64;
  config.group_boundary = Boundary::kEllipse;
  config.mask_boundary = Boundary::kEllipse;

  const FrameContext data = rendered_frame(cloud, cam, config);

  RenderConfig rc;
  rc.tile_size = 16;
  rc.boundary = Boundary::kEllipse;
  RenderCounters counters;
  const auto splats = preprocess(cloud, cam, rc, counters);
  const CellGrid tile_grid = CellGrid::over_image(cam.width(), cam.height(), 16);
  const BinnedSplats baseline = bin_splats(splats, tile_grid, rc.boundary, 0, counters);

  const int r = config.tiles_per_side();
  for (int ty = 0; ty < tile_grid.cells_y; ++ty) {
    for (int tx = 0; tx < tile_grid.cells_x; ++tx) {
      const int t = tile_grid.cell_index(tx, ty);
      std::set<std::uint32_t> expected;
      for (const auto id : baseline.cell_list(t)) {
        expected.insert(splats[id].index);
      }
      const int gx = tx / r, gy = ty / r;
      const std::size_t g =
          static_cast<std::size_t>(data.frame.group_grid.cell_index(gx, gy));
      const TileMask bit = TileMask{1} << mask_bit_index(tx - gx * r, ty - gy * r, r);
      std::set<std::uint32_t> actual;
      for (std::uint32_t e = data.frame.group_bins.offsets[g];
           e < data.frame.group_bins.offsets[g + 1]; ++e) {
        if (data.frame.masks[e] & bit) {
          actual.insert(data.splats[data.frame.group_bins.splat_ids[e]].index);
        }
      }
      EXPECT_EQ(actual, expected) << "tile (" << tx << "," << ty << ")";
    }
  }
}

TEST(Bitmasks, NoBitsOutsideGroupWindow) {
  const Camera cam = make_camera(200, 150);  // non-multiple image size: edge groups
  const GaussianCloud cloud = testutil::make_random_cloud(600, 67);
  GsTgConfig config;
  config.tile_size = 16;
  config.group_size = 64;
  const FrameContext data = rendered_frame(cloud, cam, config);
  const CellGrid& tiles = data.frame.tile_grid;
  const CellGrid& groups = data.frame.group_grid;
  const int rr = config.tiles_per_side();

  for (int gy = 0; gy < groups.cells_y; ++gy) {
    for (int gx = 0; gx < groups.cells_x; ++gx) {
      const std::size_t g = static_cast<std::size_t>(groups.cell_index(gx, gy));
      // Bits for tiles beyond the image's tile grid must never be set.
      TileMask legal = 0;
      for (int ly = 0; ly < rr; ++ly) {
        for (int lx = 0; lx < rr; ++lx) {
          if (gx * rr + lx < tiles.cells_x && gy * rr + ly < tiles.cells_y) {
            legal |= TileMask{1} << mask_bit_index(lx, ly, rr);
          }
        }
      }
      for (std::uint32_t e = data.frame.group_bins.offsets[g];
           e < data.frame.group_bins.offsets[g + 1]; ++e) {
        EXPECT_EQ(data.frame.masks[e] & ~legal, 0u);
      }
    }
  }
}

/// The hardware raster module's per-tile AND-filter, written out: every
/// entry of the tile's group is checked against the tile's location bit
/// and the survivors, in group-list order, go to the tile kernel.
struct AndFilterReference {
  Framebuffer image;
  RenderCounters counters;
};

AndFilterReference and_filter_reference(const GroupedFrame& frame,
                                        std::span<const ProjectedSplat> splats, bool sortless) {
  const CellGrid& tiles = frame.tile_grid;
  const int r = frame.config.tiles_per_side();
  const SimdPolicy simd{resolve_simd_backend(frame.config.simd.backend),
                        frame.config.simd.exp_mode};
  AndFilterReference ref{Framebuffer(tiles.image_width, tiles.image_height), {}};
  TileRasterScratch exact_scratch;
  SortlessRasterScratch sortless_scratch;
  TileRasterStats stats;
  std::vector<std::uint32_t> filtered;
  for (int ty = 0; ty < tiles.cells_y; ++ty) {
    for (int tx = 0; tx < tiles.cells_x; ++tx) {
      const int gx = tx / r, gy = ty / r;
      const std::size_t g = static_cast<std::size_t>(frame.group_grid.cell_index(gx, gy));
      const TileMask location = TileMask{1} << mask_bit_index(tx - gx * r, ty - gy * r, r);
      filtered.clear();
      for (std::uint32_t e = frame.group_bins.offsets[g]; e < frame.group_bins.offsets[g + 1];
           ++e) {
        ++ref.counters.filter_checks;
        if (frame.masks[e] & location) filtered.push_back(frame.group_bins.splat_ids[e]);
      }
      const int x0 = tx * tiles.cell_size, y0 = ty * tiles.cell_size;
      const int x1 = std::min(x0 + tiles.cell_size, tiles.image_width);
      const int y1 = std::min(y0 + tiles.cell_size, tiles.image_height);
      stats.accumulate(sortless ? rasterize_tile_sortless(splats, filtered, x0, y0, x1, y1,
                                                          ref.image, sortless_scratch, simd)
                                : rasterize_tile(splats, filtered, x0, y0, x1, y1, ref.image,
                                                 exact_scratch, simd));
    }
  }
  ref.counters.alpha_computations = stats.alpha_computations;
  ref.counters.blend_ops = stats.blend_ops;
  ref.counters.early_exit_pixels = stats.early_exit_pixels;
  ref.counters.pixel_list_work = stats.pixel_list_work;
  ref.counters.total_pixels = stats.pixels;
  return ref;
}

TEST(RasterizeGrouped, MaskIndexedListsMatchPerTileAndFilter) {
  const GaussianCloud cloud = testutil::make_random_cloud(900, 71);
  struct Geometry {
    int width, height, tile_size, group_size;
  };
  // Image sizes that are not group multiples clip the right and bottom
  // groups. The 8/16 geometry has more than 256 groups and tiles, so the
  // 4-thread runs split both the expansion and the raster across workers;
  // 8/64 fills all 64 mask bits.
  for (const Geometry geo : {Geometry{270, 262, 8, 16}, Geometry{200, 150, 16, 64},
                             Geometry{200, 150, 8, 64}}) {
    const Camera cam = make_camera(geo.width, geo.height);
    for (const bool sortless : {false, true}) {
      for (const std::size_t threads : {1, 4}) {
        GsTgConfig config;
        config.tile_size = geo.tile_size;
        config.group_size = geo.group_size;
        config.threads = threads;
        const FrameContext data = rendered_frame(cloud, cam, config);
        const AndFilterReference ref = and_filter_reference(data.frame, data.splats, sortless);

        Framebuffer image(cam.width(), cam.height());
        RenderCounters c;
        RasterScratch scratch;
        if (sortless) {
          rasterize_grouped_sortless(data.frame, data.splats, image, threads, c, &scratch);
        } else {
          rasterize_grouped(data.frame, data.splats, image, threads, c, &scratch);
        }
        const std::string what = std::to_string(geo.tile_size) + "/" +
                                 std::to_string(geo.group_size) +
                                 (sortless ? " sortless" : " exact") + ", " +
                                 std::to_string(threads) + " threads";
        ASSERT_EQ(image.pixels().size(), ref.image.pixels().size());
        EXPECT_EQ(std::memcmp(image.pixels().data(), ref.image.pixels().data(),
                              image.pixels().size() * sizeof(Vec3)),
                  0)
            << what;
        EXPECT_EQ(c.filter_checks, ref.counters.filter_checks) << what;
        EXPECT_EQ(c.alpha_computations, ref.counters.alpha_computations) << what;
        EXPECT_EQ(c.blend_ops, ref.counters.blend_ops) << what;
        EXPECT_EQ(c.early_exit_pixels, ref.counters.early_exit_pixels) << what;
        EXPECT_EQ(c.pixel_list_work, ref.counters.pixel_list_work) << what;
        EXPECT_EQ(c.total_pixels, ref.counters.total_pixels) << what;
        EXPECT_GT(c.blend_ops, 0u) << what;
      }
    }
  }
}

TEST(SortGroups, MasksTravelWithTheirSplats) {
  const Camera cam = make_camera();
  const GaussianCloud cloud = testutil::make_random_cloud(400, 71);
  GsTgConfig config;
  const FrameContext data = rendered_frame(cloud, cam, config);

  // Recompute masks from scratch for the *sorted* bins: each entry's mask
  // must match a fresh mask computed for its splat.
  RenderCounters scratch;
  std::vector<TileMask> fresh;
  generate_bitmasks_into(data.splats, data.frame.group_bins, data.frame.tile_grid, config,
                         scratch, fresh);
  ASSERT_EQ(fresh.size(), data.frame.masks.size());
  for (std::size_t e = 0; e < fresh.size(); ++e) {
    EXPECT_EQ(fresh[e], data.frame.masks[e]) << "entry " << e;
  }
}

TEST(SortGroups, GroupListsAreDepthSorted) {
  const Camera cam = make_camera();
  const GaussianCloud cloud = testutil::make_random_cloud(700, 73);
  GsTgConfig config;
  const FrameContext data = rendered_frame(cloud, cam, config);
  const auto& bins = data.frame.group_bins;
  for (int g = 0; g < bins.grid.cell_count(); ++g) {
    const auto list = bins.cell_list(g);
    for (std::size_t i = 1; i < list.size(); ++i) {
      const auto& a = data.splats[list[i - 1]];
      const auto& b = data.splats[list[i]];
      EXPECT_TRUE(a.depth < b.depth || (a.depth == b.depth && a.index < b.index));
    }
  }
}

TEST(Grouping, GroupPairsFarFewerThanTilePairs) {
  // The sorting-reduction claim: group-level pairs (GS-TG sort volume) are
  // much fewer than tile-level pairs (baseline sort volume).
  const Camera cam = make_camera(320, 256);
  const GaussianCloud cloud = testutil::make_random_cloud(1500, 79);
  GsTgConfig config;
  const FrameContext data = rendered_frame(cloud, cam, config);

  RenderConfig rc;
  rc.tile_size = config.tile_size;
  rc.boundary = config.mask_boundary;
  RenderCounters counters;
  const auto splats = preprocess(cloud, cam, rc, counters);
  const CellGrid tile_grid = CellGrid::over_image(cam.width(), cam.height(), rc.tile_size);
  bin_splats(splats, tile_grid, rc.boundary, 0, counters);

  const std::size_t group_pairs = data.frame.group_bins.splat_ids.size();
  EXPECT_LT(group_pairs, counters.tile_pairs);
}

TEST(Grouping, AdversarialFootprintsSurviveGroupingAndBitmasks) {
  // Degenerate splats through the group-granularity callers of the
  // candidate-cell math: identify_groups and generate_bitmasks_into must not
  // perform unclamped float→int casts (UBSan) and must agree between flat
  // and hierarchical group binning.
  constexpr float nan = std::numeric_limits<float>::quiet_NaN();
  constexpr float inf = std::numeric_limits<float>::infinity();
  const auto splat = [](Vec2 center, Sym2 cov, float rho, std::uint32_t index) {
    ProjectedSplat s;
    s.center = center;
    s.cov = cov;
    s.conic = inverse(cov);
    s.depth = 1.0f + static_cast<float>(index);
    s.opacity = 0.9f;
    s.rho = rho;
    s.index = index;
    return s;
  };
  const std::vector<ProjectedSplat> splats = {
      splat({40, 40}, Sym2{1, 0, 1}, 1e30f, 0),   // huge rho: full cover
      splat({nan, 40}, Sym2{1, 0, 1}, 9.0f, 1),   // NaN mean: dropped
      splat({40, 40}, Sym2{nan, 0, 1}, 9.0f, 2),  // NaN covariance: dropped
      splat({-inf, 12}, Sym2{1, 0, 1}, 9.0f, 3),  // off-screen at -inf
      splat({70, 30}, Sym2{2, 0, 2}, 9.0f, 4),    // sane anchor
  };
  const CellGrid tile_grid = CellGrid::over_image(128, 96, 16);
  const CellGrid group_grid = CellGrid::over_image(128, 96, 64);

  GsTgConfig config;
  config.binning = BinningMode::kFlat;
  RenderCounters cf;
  const BinnedSplats flat = identify_groups(splats, group_grid, config, cf);
  config.binning = BinningMode::kVerify;  // hierarchical + flat identity audit
  RenderCounters ch;
  const BinnedSplats hier = identify_groups(splats, group_grid, config, ch);
  EXPECT_EQ(cf.tile_pairs, ch.tile_pairs);
  ASSERT_EQ(flat.offsets, hier.offsets);

  // Bitmask generation walks candidate_cells per entry; the huge-rho splat
  // must cover every tile of every group it reached.
  RenderCounters mc;
  std::vector<TileMask> masks;
  generate_bitmasks_into(splats, flat, tile_grid, config, mc, masks);
  ASSERT_EQ(masks.size(), flat.splat_ids.size());
  for (std::size_t e = 0; e < masks.size(); ++e) {
    if (flat.splat_ids[e] == 0) {
      EXPECT_NE(masks[e], 0u) << "entry " << e;
    }
  }
}

TEST(Grouping, MismatchedMaskArrayThrows) {
  const Camera cam = make_camera();
  const GaussianCloud cloud = testutil::make_random_cloud(100, 83);
  GsTgConfig config;
  FrameContext data = rendered_frame(cloud, cam, config);
  std::vector<TileMask> wrong(data.frame.masks.size() + 1, 0);
  RenderCounters counters;
  EXPECT_THROW(sort_groups(data.frame.group_bins, wrong, data.splats, 1, counters),
               std::invalid_argument);
}

}  // namespace
}  // namespace gstg
