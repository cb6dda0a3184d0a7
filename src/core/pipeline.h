// The one-shot render entry points. GS-TG (paper Fig. 9) sorts at group
// (large-tile) granularity and rasterizes at small-tile granularity via
// per-Gaussian bitmasks — lossless with respect to the baseline. The
// baseline per-tile pipeline (paper Fig. 1) is the same frame at r = 1.
#pragma once

#include "camera/camera.h"
#include "core/grouping.h"
#include "gaussian/cloud.h"
#include "render/pipeline.h"

namespace gstg {

/// Runs the full GS-TG pipeline. StageTimes attribution:
///   preprocess_ms = features + culling + group identification
///   bitmask_ms    = bitmask generation (GPU execution runs it sequentially;
///                   the accelerator overlaps it with sorting — the cycle
///                   simulator models that, see sim/); 0 when
///                   GsTgConfig::group_test_is_tile_test() proves the masks
///   sort_ms       = group-wise sorting
///   raster_ms     = bitmask filtering + tile-wise rasterization
RenderResult render_gstg(const GaussianCloud& cloud, const Camera& camera,
                         const GsTgConfig& config);

/// Runs the baseline per-tile pipeline (preprocessing with tile
/// identification, tile-wise sorting, tile-wise rasterization) as the GS-TG
/// frame of tile_sorted_config(config). No bitmask stage runs: bitmask_ms,
/// bitmask_tests and filter_checks stay 0. `config.pipeline` selects the
/// blending discipline as for GS-TG: kSortless skips the per-tile sort
/// (sort_pairs stays 0); kVerify ships the sortless image and fills in
/// RenderResult::quality against the exact reference.
RenderResult render_baseline(const GaussianCloud& cloud, const Camera& camera,
                             const RenderConfig& config);

}  // namespace gstg
