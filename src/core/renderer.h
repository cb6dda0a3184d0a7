// Persistent GS-TG renderer: the servable, allocation-free steady-state
// form of the one-shot pipeline in core/pipeline.h.
//
// A FrameContext owns every per-frame product and scratch buffer (projected
// splats, group CSR lists, tile bitmasks, sort keys, blending buffers,
// framebuffer). Rendering through a reused context produces bit-identical
// images to independent render_gstg() calls while allocating nothing once
// the buffers have warmed up to the workload — the execution model a
// multi-user rendering service needs (persistent device buffers in the GPU
// rasterizers this mirrors).
//
// render_batch() adds view-level parallelism on top of the existing
// intra-frame threading: a small pool of workers, each with its own
// FrameContext, drains the camera list. Frames are independent, so the
// batch output is bit-identical to the sequential loop.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "camera/camera.h"
#include "core/grouping.h"
#include "core/pipeline.h"
#include "gaussian/cloud.h"
#include "gaussian/compressed.h"
#include "render/preprocess.h"

namespace gstg {

/// All per-frame state of one GS-TG render, reusable across frames. The
/// stage products (splats, frame, image, counters, times) are valid after
/// Renderer::render returns, and so are the tile lists and per-tile stats
/// the raster leaves in `raster` (tile_offsets/tile_ids/tile_stats). The
/// other scratch members are implementation buffers.
/// Every kVerify audit runs the frame's reference config (residency
/// kFloat32, pipeline kExact, temporal kOff) into `reference`, then compares
/// one product with it: the splats, the image or the group orders. The
/// temporal audit stops the reference after its ordering step.
struct FrameContext {
  // Stage products.
  std::vector<ProjectedSplat> splats;
  GroupedFrame frame;
  Framebuffer image{1, 1};
  StageTimes times;
  RenderCounters counters;
  /// PipelineMode::kVerify only: PSNR/SSIM of the shipped sortless image
  /// against the reference image (quality.measured stays false otherwise).
  ImageQuality quality;

  // Reused stage scratch.
  PreprocessScratch preprocess;
  BinningScratch binning;
  SortScratch sort;
  RasterScratch raster;

  // render(CompressedCloud) scratch; `decoded` is kFloat32's up-front form.
  DecodeScratch decode;
  GaussianCloud decoded;
  /// The audit side context: allocated by the first audited frame, reused.
  std::unique_ptr<FrameContext> reference;
};

/// A persistent renderer bound to one validated configuration. Stateless
/// across calls apart from the config, so one Renderer may be shared by
/// many threads as long as each thread renders into its own FrameContext.
///
/// Every GS-TG frame path runs the one stage sequence written here (paper
/// Fig. 9): preprocess with group identification, bitmask generation, the
/// group ordering, then tile raster with bitmask filtering. The render()
/// overloads differ only in their preprocess step; TemporalRenderer reuses
/// begin_frame()/end_frame() and supplies only its ordering step.
///
/// StageTimes attribution, for every frame path: each field is the sum of
/// the frame's GSTG_STAGE spans (telemetry/trace.h) named here.
///   preprocess_ms = preprocess (features + culling) + binning (group
///                   identification); also bitmask when
///                   GsTgConfig::group_test_is_tile_test() proves the masks
///   bitmask_ms    = bitmask (GPU execution runs it sequentially; the
///                   accelerator overlaps it with sorting — the cycle
///                   simulator models that, see sim/)
///   sort_ms       = the ordering step: sort_groups, or TemporalRenderer's
///                   temporal_sort + audit + snapshot_cache; 0 when sortless
///   raster_ms     = raster (bitmask filtering + tile-wise rasterization)
/// The residency and pipeline audits run after the raster, in no field.
class Renderer {
 public:
  /// Validates and captures the configuration as given (throws
  /// ConfigError on an invalid one, like render_gstg). The
  /// environment is not consulted: process edges apply the GSTG_* mode
  /// knobs beforehand with resolve_from_env (common/runconfig.h).
  explicit Renderer(const GsTgConfig& config);

  [[nodiscard]] const GsTgConfig& config() const { return config_; }

  /// Renders the cloud from `camera` into `ctx`, reusing every buffer the
  /// context already holds. ctx.image / ctx.times / ctx.counters carry the
  /// result — identical to render_gstg(cloud, camera, config()).
  void render(const GaussianCloud& cloud, const Camera& camera, FrameContext& ctx) const;

  /// Renders from the fp16-resident form under config().residency:
  ///  - kCompressed: streamed block decode through ctx.decode — the float32
  ///    form of the whole cloud never exists;
  ///  - kFloat32: decodes the whole cloud into ctx.decoded first (the
  ///    reference execution of the same resident data);
  ///  - kVerify: kCompressed, then throws ResidencyError unless the splat
  ///    stream is bit-identical to the reference (kFloat32) frame's — splat
  ///    equality is image equality. The audit runs after the frame, so its
  ///    preprocess is in no StageTimes field.
  /// Every mode produces the image render(cloud.decode(), camera, ctx)
  /// would — bit-identical across modes, threads and SIMD backends.
  void render(const CompressedCloud& cloud, const Camera& camera, FrameContext& ctx) const;

  /// render() split around its ordering step, for frame paths that order
  /// the group lists themselves. begin_frame resets ctx's products, then
  /// runs preprocess, grid set-up, group identification and bitmask
  /// generation. The caller orders ctx.frame — order_groups(), or its own
  /// order — under the exact pipeline only: kSortless/kVerify blend the raw
  /// bin order. The caller's ordering stages add their own time to sort_ms.
  /// end_frame runs the raster stage and (kVerify) the pipeline audit into
  /// ctx.quality.
  void begin_frame(const GaussianCloud& cloud, const Camera& camera, FrameContext& ctx) const;
  void end_frame(const GaussianCloud& cloud, const Camera& camera, FrameContext& ctx) const;

  /// The plain ordering step: depth-sorts every group list of ctx.frame
  /// with its masks (core/grouping.h's sort_groups). Its span adds to no
  /// StageTimes field; a caller's enclosing stage carries the time.
  void order_groups(FrameContext& ctx) const;

  /// Runs config()'s reference frame into ctx.reference up to and including
  /// its ordering step (begin_frame + order_groups) and returns it: the
  /// group orders, masks and sort counters are set; the raster does not run.
  const FrameContext& order_reference(const GaussianCloud& cloud, const Camera& camera,
                                      FrameContext& ctx) const;

 private:
  GsTgConfig config_;
};

/// Batch rendering options.
struct BatchOptions {
  /// Concurrent view workers (0 = min(view count, worker_thread_count())).
  /// Each worker renders whole frames with the config's intra-frame thread
  /// setting; prefer view_threads * config.threads <= core count.
  std::size_t view_threads = 0;
};

/// Result of render_batch: per-view outputs in camera order plus the merged
/// counters and the batch wall-clock.
struct BatchRenderResult {
  std::vector<Framebuffer> images;
  std::vector<StageTimes> times;
  std::vector<RenderCounters> counters;
  RenderCounters total;
  double wall_ms = 0.0;
};

/// Renders every camera view of `cloud` under one config. Output images are
/// bit-identical to N independent render_gstg() calls; view workers reuse
/// one FrameContext each, so steady-state frames allocate only the returned
/// image copies.
BatchRenderResult render_batch(const GaussianCloud& cloud, std::span<const Camera> cameras,
                               const GsTgConfig& config, const BatchOptions& options = {});

}  // namespace gstg
