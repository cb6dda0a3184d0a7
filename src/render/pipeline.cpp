#include "render/pipeline.h"

#include "common/timer.h"
#include "render/binning.h"
#include "render/preprocess.h"
#include "render/rasterize.h"
#include "render/sort.h"

namespace gstg {

RenderResult render_baseline(const GaussianCloud& cloud, const Camera& camera,
                             const RenderConfig& config) {
  RenderResult result{Framebuffer(camera.width(), camera.height()), {}, {}, {}};
  Timer timer;

  // Preprocessing: feature computation + culling + tile identification.
  const std::vector<ProjectedSplat> splats =
      preprocess(cloud, camera, config, result.counters);
  const CellGrid grid =
      CellGrid::over_image(camera.width(), camera.height(), config.tile_size);
  BinnedSplats bins =
      bin_splats(splats, grid, config.boundary, config.threads, result.counters, config.binning);
  result.times.preprocess_ms = timer.lap_ms();

  if (config.pipeline != PipelineMode::kExact) {
    // Sortless: blend the raw (unsorted) per-tile lists order-independently.
    // No sort runs, so sort_pairs / sort_comparison_volume stay 0.
    result.times.sort_ms = timer.lap_ms();
    rasterize_all_sortless(bins, splats, result.image, config.threads, result.counters,
                           config.simd);
    result.times.raster_ms = timer.lap_ms();

    if (config.pipeline == PipelineMode::kVerify) {
      // Audit render: the exact pipeline on the same bins, reported as
      // PSNR/SSIM but never shipped (counters/times stay the sortless ones).
      RenderCounters audit_counters;
      sort_cell_lists(bins, splats, config.threads, audit_counters, config.sort_algo);
      Framebuffer reference(camera.width(), camera.height());
      rasterize_all(bins, splats, reference, config.threads, audit_counters, config.simd);
      result.quality = image_quality(reference, result.image);
    }
    return result;
  }

  // Tile-wise sorting.
  sort_cell_lists(bins, splats, config.threads, result.counters, config.sort_algo);
  result.times.sort_ms = timer.lap_ms();

  // Tile-wise rasterization.
  rasterize_all(bins, splats, result.image, config.threads, result.counters, config.simd);
  result.times.raster_ms = timer.lap_ms();

  return result;
}

}  // namespace gstg
