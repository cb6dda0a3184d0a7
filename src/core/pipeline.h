// End-to-end GS-TG rendering pipeline (paper Fig. 9): sorting happens at
// group (large-tile) granularity, rasterization at small-tile granularity
// via per-Gaussian bitmasks — lossless with respect to the baseline.
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
///                   simulator models that, see sim/)
///   sort_ms       = group-wise sorting
///   raster_ms     = bitmask filtering + tile-wise rasterization
RenderResult render_gstg(const GaussianCloud& cloud, const Camera& camera,
                         const GsTgConfig& config);

}  // namespace gstg
