#include "core/renderer.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <string>
#include <thread>

#include "telemetry/trace.h"

namespace gstg {

Renderer::Renderer(const GsTgConfig& config) : config_(config) {
  config_.validate();
  telemetry::ensure_started_from_env();
  if (config_.trace) telemetry::ensure_collecting();
}

namespace {

bool bits_equal(float a, float b) {
  return std::bit_cast<std::uint32_t>(a) == std::bit_cast<std::uint32_t>(b);
}

/// Bit-exact splat comparison (operator== on floats would conflate -0/0 and
/// reject NaN == NaN; the residency audit wants representation equality).
bool splats_identical(const ProjectedSplat& a, const ProjectedSplat& b) {
  return bits_equal(a.center.x, b.center.x) && bits_equal(a.center.y, b.center.y) &&
         bits_equal(a.cov.xx, b.cov.xx) && bits_equal(a.cov.xy, b.cov.xy) &&
         bits_equal(a.cov.yy, b.cov.yy) && bits_equal(a.conic.xx, b.conic.xx) &&
         bits_equal(a.conic.xy, b.conic.xy) && bits_equal(a.conic.yy, b.conic.yy) &&
         bits_equal(a.depth, b.depth) && bits_equal(a.opacity, b.opacity) &&
         bits_equal(a.rgb.x, b.rgb.x) && bits_equal(a.rgb.y, b.rgb.y) &&
         bits_equal(a.rgb.z, b.rgb.z) && bits_equal(a.rho, b.rho) && a.index == b.index;
}

/// Preprocessing (features + culling) of the float32 cloud. The
/// scratch-reusing form keeps the steady state allocation-free.
void preprocess_stage(const GsTgConfig& config, const GaussianCloud& cloud, const Camera& camera,
                      FrameContext& ctx) {
  preprocess_into(cloud, camera, config.render_config(), ctx.counters, ctx.splats,
                  ctx.preprocess);
}

/// Preprocessing of the fp16-resident cloud under config.residency.
void preprocess_stage(const GsTgConfig& config, const CompressedCloud& cloud,
                      const Camera& camera, FrameContext& ctx) {
  const RenderConfig rc = config.render_config();
  switch (config.residency) {
    case ResidencyMode::kFloat32:
      cloud.decode_range(0, cloud.size(), ctx.decoded);
      preprocess_into(ctx.decoded, camera, rc, ctx.counters, ctx.splats, ctx.preprocess);
      break;
    case ResidencyMode::kCompressed:
      preprocess_compressed_into(cloud, camera, rc, ctx.counters, ctx.splats, ctx.preprocess,
                                 ctx.decode);
      break;
    case ResidencyMode::kVerify: {
      // Streamed run (the one whose products the frame keeps) plus the
      // up-front-decode reference run into separate scratch; the audit
      // demands representation-level equality of the splat streams. The
      // downstream stages are deterministic functions of the splat stream,
      // so this equality is image equality.
      preprocess_compressed_into(cloud, camera, rc, ctx.counters, ctx.splats, ctx.preprocess,
                                 ctx.decode);
      cloud.decode_range(0, cloud.size(), ctx.decoded);
      RenderCounters reference;
      preprocess_into(ctx.decoded, camera, rc, reference, ctx.verify_splats,
                      ctx.verify_preprocess);
      if (reference.input_gaussians != ctx.counters.input_gaussians ||
          reference.visible_gaussians != ctx.counters.visible_gaussians) {
        throw ResidencyError("verify: streamed preprocess counters diverge (visible " +
                             std::to_string(ctx.counters.visible_gaussians) + " vs " +
                             std::to_string(reference.visible_gaussians) + ")");
      }
      if (ctx.splats.size() != ctx.verify_splats.size()) {
        throw ResidencyError("verify: streamed survivor count " +
                             std::to_string(ctx.splats.size()) + " != up-front count " +
                             std::to_string(ctx.verify_splats.size()));
      }
      for (std::size_t i = 0; i < ctx.splats.size(); ++i) {
        if (!splats_identical(ctx.splats[i], ctx.verify_splats[i])) {
          throw ResidencyError("verify: splat " + std::to_string(i) +
                               " (cloud index " + std::to_string(ctx.splats[i].index) +
                               ") differs between streamed and up-front decode");
        }
      }
      break;
    }
  }
}

/// The frame up to its ordering step: preprocess, then group
/// identification and bitmask generation over the frame's grids.
template <class Cloud>
void begin(const GsTgConfig& config, const Cloud& cloud, const Camera& camera, FrameContext& ctx,
           Timer& timer) {
  ctx.times = {};
  ctx.counters = {};
  ctx.quality = {};
  {
    GSTG_SPAN("preprocess");
    preprocess_stage(config, cloud, camera, ctx);
  }

  // Group identification is bin_splats at group granularity
  // (identify_groups); charged to the preprocessing stage like the paper.
  ctx.frame.config = config;
  ctx.frame.tile_grid = CellGrid::over_image(camera.width(), camera.height(), config.tile_size);
  ctx.frame.group_grid = CellGrid::over_image(camera.width(), camera.height(), config.group_size);
  {
    GSTG_SPAN("binning");
    bin_splats_into(ctx.splats, ctx.frame.group_grid, config.group_boundary, config.threads,
                    ctx.counters, ctx.frame.group_bins, ctx.binning);
  }
  ctx.times.preprocess_ms = timer.lap_ms();

  {
    // Bitmask generation (sequential here; overlapped with sorting in HW).
    GSTG_SPAN("bitmask");
    generate_bitmasks_into(ctx.splats, ctx.frame.group_bins, ctx.frame.tile_grid, config,
                           ctx.counters, ctx.frame.masks);
  }
  // When group identification already decided every mask (r = 1 with one
  // boundary method: the per-tile baseline), writing them is part of that
  // step and no bitmask stage is charged.
  const double mask_ms = timer.lap_ms();
  if (config.group_test_is_tile_test()) {
    ctx.times.preprocess_ms += mask_ms;
  } else {
    ctx.times.bitmask_ms = mask_ms;
  }
}

/// One whole frame with the plain ordering step (exact pipeline only).
template <class Cloud>
void render_frame(const Renderer& renderer, const Cloud& cloud, const Camera& camera,
                  FrameContext& ctx) {
  GSTG_SPAN("frame");
  Timer timer;
  begin(renderer.config(), cloud, camera, ctx, timer);
  if (renderer.config().pipeline == PipelineMode::kExact) renderer.order_groups(ctx);
  renderer.end_frame(camera, ctx, timer);
}

}  // namespace

void Renderer::render(const GaussianCloud& cloud, const Camera& camera,
                      FrameContext& ctx) const {
  render_frame(*this, cloud, camera, ctx);
}

void Renderer::render(const CompressedCloud& cloud, const Camera& camera,
                      FrameContext& ctx) const {
  render_frame(*this, cloud, camera, ctx);
}

void Renderer::begin_frame(const GaussianCloud& cloud, const Camera& camera, FrameContext& ctx,
                           Timer& timer) const {
  begin(config_, cloud, camera, ctx, timer);
}

void Renderer::order_groups(FrameContext& ctx) const {
  GSTG_SPAN("sort_groups");
  sort_groups(ctx.frame.group_bins, ctx.frame.masks, ctx.splats, config_.threads, ctx.counters,
              SortAlgo::kAuto, &ctx.sort);
}

void Renderer::end_frame(const Camera& camera, FrameContext& ctx, Timer& timer) const {
  // Whatever ordering ran since bitmask generation is the sort stage. The
  // sortless pipelines run none: the raw bin order feeds the
  // order-independent kernel directly (its output is invariant under any
  // reordering), so ctx.counters reports zero sort_pairs.
  ctx.times.sort_ms = timer.lap_ms();

  {
    // Tile-wise rasterization with bitmask filtering.
    GSTG_SPAN("raster");
    ctx.image.resize(camera.width(), camera.height());
    if (config_.pipeline == PipelineMode::kExact) {
      rasterize_grouped(ctx.frame, ctx.splats, ctx.image, config_.threads, ctx.counters,
                        &ctx.raster);
    } else {
      rasterize_grouped_sortless(ctx.frame, ctx.splats, ctx.image, config_.threads,
                                 ctx.counters, &ctx.raster);
    }
  }
  ctx.times.raster_ms = timer.lap_ms();

  if (config_.pipeline == PipelineMode::kVerify) {
    // Quality audit: sort the bins and render the exact reference. Audit
    // work is charged to a discarded counter record — ctx.counters (and
    // ctx.image, already flushed above) match a pure kSortless frame, and
    // the audit time stays out of the per-stage attribution.
    GSTG_SPAN("quality_audit");
    RenderCounters audit;
    sort_groups(ctx.frame.group_bins, ctx.frame.masks, ctx.splats, config_.threads, audit,
                SortAlgo::kAuto, &ctx.sort);
    ctx.verify_image.resize(camera.width(), camera.height());
    rasterize_grouped(ctx.frame, ctx.splats, ctx.verify_image, config_.threads, audit,
                      &ctx.raster);
    ctx.quality = image_quality(ctx.verify_image, ctx.image);
  }
}

BatchRenderResult render_batch(const GaussianCloud& cloud, std::span<const Camera> cameras,
                               const GsTgConfig& config, const BatchOptions& options) {
  const Renderer renderer(config);
  const std::size_t n = cameras.size();

  BatchRenderResult result;
  result.images.reserve(n);
  for (const Camera& camera : cameras) {
    result.images.emplace_back(camera.width(), camera.height());
  }
  result.times.resize(n);
  result.counters.resize(n);

  Timer timer;
  std::size_t workers = options.view_threads == 0
                            ? std::min<std::size_t>(n, worker_thread_count())
                            : std::min<std::size_t>(n, options.view_threads);
  if (workers <= 1) {
    FrameContext ctx;
    for (std::size_t i = 0; i < n; ++i) {
      renderer.render(cloud, cameras[i], ctx);
      result.images[i] = ctx.image;
      result.times[i] = ctx.times;
      result.counters[i] = ctx.counters;
    }
  } else {
    // One FrameContext per view worker; the shared cursor hands out frames
    // dynamically so a heavy view does not stall the tail of the batch.
    std::atomic<std::size_t> next{0};
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (std::size_t w = 0; w < workers; ++w) {
      pool.emplace_back([&] {
        FrameContext ctx;
        for (std::size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) {
          renderer.render(cloud, cameras[i], ctx);
          result.images[i] = ctx.image;
          result.times[i] = ctx.times;
          result.counters[i] = ctx.counters;
        }
      });
    }
    for (std::thread& t : pool) t.join();
  }
  result.wall_ms = timer.lap_ms();

  for (const RenderCounters& c : result.counters) result.total.merge(c);
  return result;
}

}  // namespace gstg
