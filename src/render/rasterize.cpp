#include "render/rasterize.h"

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "common/parallel.h"
#include "render/simd_kernels.h"

namespace gstg {

TileRasterStats rasterize_tile(std::span<const ProjectedSplat> splats,
                               std::span<const std::uint32_t> order, int x0, int y0, int x1,
                               int y1, Framebuffer& fb, SimdPolicy simd) {
  TileRasterScratch scratch;
  return rasterize_tile(splats, order, x0, y0, x1, y1, fb, scratch, simd);
}

TileRasterStats rasterize_tile(std::span<const ProjectedSplat> splats,
                               std::span<const std::uint32_t> order, int x0, int y0, int x1,
                               int y1, Framebuffer& fb, TileRasterScratch& scratch,
                               SimdPolicy simd) {
  if (x0 < 0 || y0 < 0 || x1 > fb.width() || y1 > fb.height() || x1 <= x0 || y1 <= y0) {
    throw std::invalid_argument("rasterize_tile: block out of bounds");
  }
  const SimdKernels& kernels = simd_kernels(resolve_simd_backend(simd.backend));
  return kernels.rasterize_tile(splats, order, x0, y0, x1, y1, fb, scratch, simd.exp_mode);
}

void rasterize_all(const BinnedSplats& bins, std::span<const ProjectedSplat> splats,
                   Framebuffer& fb, std::size_t threads, RenderCounters& counters,
                   SimdPolicy simd) {
  const CellGrid& grid = bins.grid;
  const std::size_t cells = static_cast<std::size_t>(grid.cell_count());

  // Resolve once per stage (not per tile): one env read / probe, then a
  // concrete backend for every worker.
  const SimdPolicy resolved{resolve_simd_backend(simd.backend), simd.exp_mode};

  // Per-worker stat slots sized from the exact worker count (no aliasing),
  // merged in worker order after the join.
  const std::size_t workers = planned_worker_count(cells, threads);
  std::vector<TileRasterStats> per_worker(workers);

  parallel_for_chunks(0, cells, [&](std::size_t lo, std::size_t hi, std::size_t worker) {
    TileRasterStats local;
    TileRasterScratch scratch;
    for (std::size_t c = lo; c < hi; ++c) {
      const int cx = static_cast<int>(c) % grid.cells_x;
      const int cy = static_cast<int>(c) / grid.cells_x;
      const int x0 = cx * grid.cell_size;
      const int y0 = cy * grid.cell_size;
      const int x1 = std::min(x0 + grid.cell_size, grid.image_width);
      const int y1 = std::min(y0 + grid.cell_size, grid.image_height);
      local.accumulate(rasterize_tile(splats, bins.cell_list(static_cast<int>(c)), x0, y0, x1,
                                      y1, fb, scratch, resolved));
    }
    per_worker[worker].accumulate(local);
  }, threads);

  for (const TileRasterStats& s : per_worker) {
    counters.alpha_computations += s.alpha_computations;
    counters.blend_ops += s.blend_ops;
    counters.early_exit_pixels += s.early_exit_pixels;
    counters.pixel_list_work += s.pixel_list_work;
    counters.total_pixels += s.pixels;
  }
}

TileRasterStats rasterize_tile_sortless(std::span<const ProjectedSplat> splats,
                                        std::span<const std::uint32_t> order, int x0, int y0,
                                        int x1, int y1, Framebuffer& fb,
                                        SortlessRasterScratch& scratch, SimdPolicy simd) {
  if (x0 < 0 || y0 < 0 || x1 > fb.width() || y1 > fb.height() || x1 <= x0 || y1 <= y0) {
    throw std::invalid_argument("rasterize_tile_sortless: block out of bounds");
  }
  const SimdKernels& kernels = simd_kernels(resolve_simd_backend(simd.backend));
  return kernels.rasterize_tile_sortless(splats, order, x0, y0, x1, y1, fb, scratch,
                                         simd.exp_mode);
}

}  // namespace gstg
