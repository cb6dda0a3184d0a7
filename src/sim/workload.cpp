#include "sim/workload.h"

#include <algorithm>
#include <cmath>

#include "common/parallel.h"
#include "core/pipeline.h"
#include "render/binning.h"
#include "render/framebuffer.h"
#include "render/preprocess.h"
#include "render/rasterize.h"
#include "render/sort.h"

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

void fill_common_traffic(FrameWorkload& w, const GaussianCloud& cloud, std::size_t pairs) {
  w.param_bytes = w.input_gaussians * cloud.bytes_per_gaussian(kBytesPerScalar);
  w.feature_bytes = pairs * kFeatureEntryBytes;
  w.list_bytes = pairs * kIndexBytes * 2;  // sorted index list write + read
  w.framebuffer_bytes = w.total_pixels * kFramebufferBytesPerPixel;
}

}  // namespace

FrameWorkload build_gstg_workload(const GaussianCloud& cloud, const Camera& camera,
                                  const GsTgConfig& config) {
  const GsTgFrameData data = build_gstg_frame(cloud, camera, config);
  const GroupedFrame& frame = data.frame;
  const CellGrid& tile_grid = frame.tile_grid;
  const CellGrid& group_grid = frame.group_grid;
  const int r = config.tiles_per_side();

  FrameWorkload w;
  w.design = "GS-TG";
  w.input_gaussians = data.counters.input_gaussians;
  w.visible_gaussians = data.counters.visible_gaussians;
  w.ident_tests = data.counters.boundary_tests;  // group identification tests

  // Per-group sorting and bitmask units.
  const std::size_t groups = static_cast<std::size_t>(group_grid.cell_count());
  w.sorts.resize(groups);
  w.bgm.resize(groups);
  for (std::size_t g = 0; g < groups; ++g) {
    const std::uint32_t n = frame.group_bins.offsets[g + 1] - frame.group_bins.offsets[g];
    w.sorts[g].n = n;
    w.bgm[g].entries = n;

    // Bitmask test count: candidate AABB window clipped to the group, the
    // exact quantity generate_bitmasks_into evaluates.
    const int gx = static_cast<int>(g) % group_grid.cells_x;
    const int gy = static_cast<int>(g) / group_grid.cells_x;
    const int tx_lo = gx * r, ty_lo = gy * r;
    const int tx_hi = std::min(tile_grid.cells_x, tx_lo + r);
    const int ty_hi = std::min(tile_grid.cells_y, ty_lo + r);
    std::uint32_t tests = 0;
    for (std::uint32_t e = frame.group_bins.offsets[g]; e < frame.group_bins.offsets[g + 1];
         ++e) {
      const TileRange cand = candidate_cells(data.splats[frame.group_bins.splat_ids[e]], tile_grid);
      const int x0 = std::max(tx_lo, cand.tx0), x1 = std::min(tx_hi, cand.tx1);
      const int y0 = std::max(ty_lo, cand.ty0), y1 = std::min(ty_hi, cand.ty1);
      if (x0 < x1 && y0 < y1) {
        tests += static_cast<std::uint32_t>((x1 - x0) * (y1 - y0));
      }
    }
    w.bgm[g].tests = tests;
  }

  // Per-tile rasterization units with measured alpha evaluations.
  const std::size_t tiles = static_cast<std::size_t>(tile_grid.cell_count());
  w.tiles.resize(tiles);
  Framebuffer scratch(tile_grid.image_width, tile_grid.image_height);
  parallel_for_chunks(0, tiles, [&](std::size_t lo, std::size_t hi, std::size_t) {
    std::vector<std::uint32_t> filtered;
    for (std::size_t t = lo; t < hi; ++t) {
      const int tx = static_cast<int>(t) % tile_grid.cells_x;
      const int ty = static_cast<int>(t) / tile_grid.cells_x;
      const int gx = tx / r, gy = ty / r;
      const std::size_t g = static_cast<std::size_t>(group_grid.cell_index(gx, gy));
      const TileMask location = TileMask{1} << mask_bit_index(tx - gx * r, ty - gy * r, r);

      filtered.clear();
      for (std::uint32_t e = frame.group_bins.offsets[g]; e < frame.group_bins.offsets[g + 1];
           ++e) {
        if (frame.masks[e] & location) filtered.push_back(frame.group_bins.splat_ids[e]);
      }
      const int x0 = tx * tile_grid.cell_size, y0 = ty * tile_grid.cell_size;
      const int x1 = std::min(x0 + tile_grid.cell_size, tile_grid.image_width);
      const int y1 = std::min(y0 + tile_grid.cell_size, tile_grid.image_height);
      const TileRasterStats s = rasterize_tile(data.splats, filtered, x0, y0, x1, y1, scratch);

      RasterUnit& unit = w.tiles[t];
      unit.filter_len = frame.group_bins.offsets[g + 1] - frame.group_bins.offsets[g];
      unit.raster_entries = static_cast<std::uint32_t>(filtered.size());
      unit.alpha_evals = s.alpha_computations;
      unit.pixels = static_cast<std::uint32_t>(s.pixels);
      unit.sort_unit = static_cast<std::uint32_t>(g);
    }
  }, config.threads);

  for (const RasterUnit& t : w.tiles) w.total_pixels += t.pixels;
  // GS-TG fetches features once per (group, splat) pair; the group's tiles
  // share them through the core's shared memory (Fig. 10). Each on-chip
  // entry additionally carries its 16-bit tile bitmask.
  fill_common_traffic(w, cloud, frame.group_bins.splat_ids.size());
  w.working_set_entry_bytes = 10;  // depth + index + 16-bit bitmask
  return w;
}

FrameWorkload build_tile_sorted_workload(const GaussianCloud& cloud, const Camera& camera,
                                         const RenderConfig& config, const std::string& design) {
  FrameWorkload w;
  w.design = design;

  RenderCounters counters;
  const std::vector<ProjectedSplat> splats = preprocess(cloud, camera, config, counters);
  const CellGrid grid = CellGrid::over_image(camera.width(), camera.height(), config.tile_size);
  BinnedSplats bins = bin_splats(splats, grid, config.boundary, config.threads, counters);
  sort_cell_lists(bins, splats, config.threads, counters, config.sort_algo);

  w.input_gaussians = counters.input_gaussians;
  w.visible_gaussians = counters.visible_gaussians;
  w.ident_tests = counters.boundary_tests;

  const std::size_t tiles = static_cast<std::size_t>(grid.cell_count());
  w.sorts.resize(tiles);
  w.tiles.resize(tiles);
  Framebuffer scratch(grid.image_width, grid.image_height);
  parallel_for_chunks(0, tiles, [&](std::size_t lo, std::size_t hi, std::size_t) {
    for (std::size_t t = lo; t < hi; ++t) {
      const int tx = static_cast<int>(t) % grid.cells_x;
      const int ty = static_cast<int>(t) / grid.cells_x;
      const int x0 = tx * grid.cell_size, y0 = ty * grid.cell_size;
      const int x1 = std::min(x0 + grid.cell_size, grid.image_width);
      const int y1 = std::min(y0 + grid.cell_size, grid.image_height);
      const auto list = bins.cell_list(static_cast<int>(t));
      const TileRasterStats s = rasterize_tile(splats, list, x0, y0, x1, y1, scratch);

      w.sorts[t].n = static_cast<std::uint32_t>(list.size());
      RasterUnit& unit = w.tiles[t];
      unit.filter_len = 0;
      unit.raster_entries = static_cast<std::uint32_t>(list.size());
      unit.alpha_evals = s.alpha_computations;
      unit.pixels = static_cast<std::uint32_t>(s.pixels);
      unit.sort_unit = static_cast<std::uint32_t>(t);
    }
  }, config.threads);

  for (const RasterUnit& t : w.tiles) w.total_pixels += t.pixels;
  fill_common_traffic(w, cloud, bins.splat_ids.size());
  return w;
}

}  // namespace gstg
