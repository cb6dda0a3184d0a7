// Frames composed from the program's public stage calls, each call timed as
// a span, and the accelerator simulation of a view. These are what a traced
// run measures per layer; the composed images must equal the production
// entry points' (Renderer::render, render_baseline) bit for bit.
#pragma once

#include <cstdint>
#include <vector>

#include "camera/camera.h"
#include "core/renderer.h"
#include "harness.h"
#include "render/pipeline.h"
#include "sim/report.h"

namespace perfbench {

/// Reused buffers of a staged GS-TG frame (the FrameContext members
/// Renderer::render uses, held by the caller).
struct StagedGstg {
  std::vector<gstg::ProjectedSplat> splats;
  gstg::PreprocessScratch preprocess;
  gstg::GroupedFrame frame;
  gstg::BinningScratch binning;
  gstg::SortScratch sort;
  gstg::RasterScratch raster;
  gstg::Framebuffer image{1, 1};
  gstg::RenderCounters counters;
  /// Tile bits set across the frame's masks: the (splat, tile) pairs that
  /// survive bitmask filtering and reach the rasterizer.
  std::size_t mask_hits = 0;
};

/// Renderer::render's stage sequence: preprocess_into, bin_splats_into at
/// group granularity, generate_bitmasks_into, sort_groups,
/// rasterize_grouped. Spans: core.frame > render.preprocess, core.group_bin,
/// core.bitmask, core.group_sort, core.raster.
void staged_gstg(const gstg::GsTgConfig& config, const gstg::GaussianCloud& cloud,
                 const gstg::Camera& camera, StagedGstg& s, Trace& trace, std::int64_t op);

/// render_baseline's stage sequence: preprocess, bin_splats at tile
/// granularity, sort_cell_lists, rasterize_all. Spans: render.frame >
/// render.preprocess, render.tile_bin, render.tile_sort, render.tile_raster.
gstg::RenderResult staged_baseline(const gstg::RenderConfig& config,
                                   const gstg::GaussianCloud& cloud, const gstg::Camera& camera,
                                   Trace& trace, std::int64_t op);

/// One view simulated on the GS-TG accelerator and on the tile-sorted
/// baseline design, plus the host time of workload extraction (a software
/// re-render) and of the cycle model, both in ms, per design.
struct SimView {
  gstg::SimReport gstg;
  gstg::SimReport baseline;
  double extract_ms[2] = {0.0, 0.0};
  double simulate_ms[2] = {0.0, 0.0};
};

SimView simulate_view(const gstg::GaussianCloud& cloud, const gstg::Camera& camera,
                      const gstg::GsTgConfig& config);

/// True when two simulations of the same view agree in every cycle, byte
/// and energy figure.
[[nodiscard]] bool same_simulation(const SimView& a, const SimView& b);

}  // namespace perfbench
