// The result type of a full render. Both one-shot pipelines return it:
// render_gstg and render_baseline (core/pipeline.h). The baseline tile
// pipeline (paper Fig. 1) is the GS-TG frame at r = 1 — one tile per group
// — so one frame sequence (core/renderer.h) serves both, and the baseline
// still provides the profiling data behind Figs. 3, 5, 7 and Table I.
#pragma once

#include "render/framebuffer.h"
#include "render/quality.h"
#include "render/types.h"

namespace gstg {

/// Output of a full render: image, per-stage wall-clock times, counters.
struct RenderResult {
  Framebuffer image;
  StageTimes times;
  RenderCounters counters;
  /// PipelineMode::kVerify only: PSNR/SSIM of the shipped sortless image
  /// against the exact reference (quality.measured stays false otherwise).
  ImageQuality quality;
};

}  // namespace gstg
