#include "sim/workload.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "core/renderer.h"

namespace gstg {

namespace {

/// DRAM layout constants: the workloads model an fp16 datapath (section
/// VI-A). A fetched projected-feature record is depth + 2D_XY + 2D_Cov +
/// opacity + RGB = 10 scalars, plus a 4-byte Gaussian index.
constexpr std::size_t kBytesPerScalar = 2;
constexpr std::size_t kFeatureScalars = 10;
constexpr std::size_t kIndexBytes = 4;
constexpr std::size_t kFeatureEntryBytes = kFeatureScalars * kBytesPerScalar + kIndexBytes;
constexpr std::size_t kFramebufferBytesPerPixel = 3;  // 8-bit RGB out

/// Renders one exact frame of `config` into `ctx` and reads the work every
/// design shares from it: a sort unit per group list, a raster unit per
/// tile (its list length and measured tile-kernel stats), and the fp16
/// DRAM traffic, with features fetched once per (group, splat) pair.
FrameWorkload render_workload(const GaussianCloud& cloud, const Camera& camera,
                              GsTgConfig config, std::string design, FrameContext& ctx) {
  config.pipeline = PipelineMode::kExact;
  Renderer(config).render(cloud, camera, ctx);
  const GroupedFrame& frame = ctx.frame;
  const CellGrid& tile_grid = frame.tile_grid;
  const std::vector<std::uint32_t>& group_offsets = frame.group_bins.offsets;
  const std::vector<std::uint32_t>& tile_offsets = ctx.raster.tile_offsets;
  const int r = frame.config.tiles_per_side();

  FrameWorkload w;
  w.design = std::move(design);
  w.input_gaussians = ctx.counters.input_gaussians;
  w.visible_gaussians = ctx.counters.visible_gaussians;
  w.ident_tests = ctx.counters.boundary_tests;  // group (or tile) identification tests

  w.sorts.resize(static_cast<std::size_t>(frame.group_grid.cell_count()));
  for (std::size_t g = 0; g < w.sorts.size(); ++g) {
    w.sorts[g].n = group_offsets[g + 1] - group_offsets[g];
  }

  w.tiles.resize(static_cast<std::size_t>(tile_grid.cell_count()));
  for (std::size_t t = 0; t < w.tiles.size(); ++t) {
    const int tx = static_cast<int>(t) % tile_grid.cells_x;
    const int ty = static_cast<int>(t) / tile_grid.cells_x;
    const TileRasterStats& s = ctx.raster.tile_stats[t];
    RasterUnit& unit = w.tiles[t];
    unit.raster_entries = tile_offsets[t + 1] - tile_offsets[t];
    unit.alpha_evals = s.alpha_computations;
    unit.pixels = static_cast<std::uint32_t>(s.pixels);
    unit.sort_unit = static_cast<std::uint32_t>(frame.group_grid.cell_index(tx / r, ty / r));
    w.total_pixels += unit.pixels;
  }

  const std::size_t pairs = frame.group_bins.splat_ids.size();
  w.param_bytes = w.input_gaussians * cloud.bytes_per_gaussian(kBytesPerScalar);
  w.feature_bytes = pairs * kFeatureEntryBytes;
  w.list_bytes = pairs * kIndexBytes * 2;  // sorted index list write + read
  w.framebuffer_bytes = w.total_pixels * kFramebufferBytesPerPixel;
  return w;
}

/// Pixels of the tile covered through subtile granularity: sum of the
/// clipped areas of subtiles whose rect intersects the splat's OBB (the
/// shape-aware test GSCore's hardware reuses for its subtile bitmap).
std::size_t covered_subtile_pixels(const ProjectedSplat& splat, int x0, int y0, int x1, int y1,
                                   int subtile) {
  const Obb obb = Obb::from_ellipse(splat.footprint());
  std::size_t covered = 0;
  for (int sy = y0; sy < y1; sy += subtile) {
    const int sy1 = std::min(sy + subtile, y1);
    for (int sx = x0; sx < x1; sx += subtile) {
      const int sx1 = std::min(sx + subtile, x1);
      const Rect rect{static_cast<float>(sx), static_cast<float>(sy), static_cast<float>(sx1),
                      static_cast<float>(sy1)};
      if (obb_intersects(obb, rect)) {
        covered += static_cast<std::size_t>(sx1 - sx) * static_cast<std::size_t>(sy1 - sy);
      }
    }
  }
  return covered;
}

}  // namespace

FrameWorkload build_gstg_workload(const GaussianCloud& cloud, const Camera& camera,
                                  const GsTgConfig& config) {
  FrameContext ctx;
  FrameWorkload w = render_workload(cloud, camera, config, "GS-TG", ctx);

  const GroupedFrame& frame = ctx.frame;
  const CellGrid& tile_grid = frame.tile_grid;
  const CellGrid& group_grid = frame.group_grid;
  const int r = frame.config.tiles_per_side();

  // Per-group bitmask units: one entry per group-list entry, and the test
  // count of its candidate AABB window clipped to the group — the exact
  // quantity generate_bitmasks_into evaluates.
  w.bgm.resize(w.sorts.size());
  for (std::size_t g = 0; g < w.bgm.size(); ++g) {
    const int gx = static_cast<int>(g) % group_grid.cells_x;
    const int gy = static_cast<int>(g) / group_grid.cells_x;
    const int tx_lo = gx * r, ty_lo = gy * r;
    const int tx_hi = std::min(tile_grid.cells_x, tx_lo + r);
    const int ty_hi = std::min(tile_grid.cells_y, ty_lo + r);
    std::uint32_t tests = 0;
    for (std::uint32_t e = frame.group_bins.offsets[g]; e < frame.group_bins.offsets[g + 1];
         ++e) {
      const TileRange cand = candidate_cells(ctx.splats[frame.group_bins.splat_ids[e]], tile_grid);
      const int x0 = std::max(tx_lo, cand.tx0), x1 = std::min(tx_hi, cand.tx1);
      const int y0 = std::max(ty_lo, cand.ty0), y1 = std::min(ty_hi, cand.ty1);
      if (x0 < x1 && y0 < y1) {
        tests += static_cast<std::uint32_t>((x1 - x0) * (y1 - y0));
      }
    }
    w.bgm[g].entries = w.sorts[g].n;
    w.bgm[g].tests = tests;
  }

  // The raster module's AND-filter scans the whole group list per tile.
  for (RasterUnit& unit : w.tiles) unit.filter_len = w.sorts[unit.sort_unit].n;
  // GS-TG fetches features once per (group, splat) pair; the group's tiles
  // share them through the core's shared memory (Fig. 10). Each on-chip
  // entry additionally carries its 16-bit tile bitmask.
  w.working_set_entry_bytes = 10;  // depth + index + 16-bit bitmask
  return w;
}

FrameWorkload build_tile_sorted_workload(const GaussianCloud& cloud, const Camera& camera,
                                         const RenderConfig& config, const std::string& design) {
  FrameContext ctx;
  return render_workload(cloud, camera, tile_sorted_config(config), design, ctx);
}

// GSCore workload model (Lee et al., ASPLOS 2024), built from the paper's
// description: OBB-based tile intersection ("shape-aware intersection
// test"), per-tile hierarchical sorting (bitonic chunks + merge), and
// subtile skipping in the rasterizer. Subtile skipping uses the same OBB
// test GSCore's hardware applies (not the exact ellipse) at coarse subtile
// granularity, so the skip rate matches GSCore's mechanism rather than an
// idealised one; the reduction is additionally scaled by the tile's
// measured early-exit factor so all designs share the same early-
// termination behaviour.
FrameWorkload build_gscore_workload(const GaussianCloud& cloud, const Camera& camera,
                                    int tile_size, int subtiles_per_side) {
  if (subtiles_per_side <= 0 || tile_size % subtiles_per_side != 0) {
    throw std::invalid_argument("build_gscore_workload: invalid subtile division");
  }
  const int subtile = tile_size / subtiles_per_side;

  RenderConfig config;
  config.tile_size = tile_size;
  config.boundary = Boundary::kObb;  // GSCore's shape-aware intersection test
  FrameContext ctx;
  FrameWorkload w =
      render_workload(cloud, camera, tile_sorted_config(config), "GSCore", ctx);

  const CellGrid& grid = ctx.frame.tile_grid;
  for (std::size_t t = 0; t < w.tiles.size(); ++t) {
    const int tx = static_cast<int>(t) % grid.cells_x;
    const int ty = static_cast<int>(t) / grid.cells_x;
    const int x0 = tx * grid.cell_size, y0 = ty * grid.cell_size;
    const int x1 = std::min(x0 + grid.cell_size, grid.image_width);
    const int y1 = std::min(y0 + grid.cell_size, grid.image_height);

    // Early-exit factor of the full-tile rasterization.
    const TileRasterStats& s = ctx.raster.tile_stats[t];
    const double early_factor =
        s.pixel_list_work > 0
            ? static_cast<double>(s.alpha_computations) / static_cast<double>(s.pixel_list_work)
            : 1.0;

    // Subtile-skipped workload: alpha evaluations restricted to covered
    // subtiles, then scaled by the same early-exit behaviour.
    std::size_t covered_px = 0;
    for (std::uint32_t e = ctx.raster.tile_offsets[t]; e < ctx.raster.tile_offsets[t + 1]; ++e) {
      covered_px +=
          covered_subtile_pixels(ctx.splats[ctx.raster.tile_ids[e]], x0, y0, x1, y1, subtile);
    }
    const auto alpha_evals = static_cast<std::uint64_t>(
        std::llround(static_cast<double>(covered_px) * early_factor));
    w.tiles[t].alpha_evals = std::min<std::uint64_t>(alpha_evals, s.alpha_computations);
  }
  return w;
}

}  // namespace gstg
