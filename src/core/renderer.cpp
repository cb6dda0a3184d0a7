#include "core/renderer.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <string>
#include <thread>
#include <type_traits>

#include "common/timer.h"
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

/// Preprocessing of the fp16-resident cloud: kFloat32 decodes it up front,
/// kCompressed and kVerify stream fp16 blocks.
void preprocess_stage(const GsTgConfig& config, const CompressedCloud& cloud,
                      const Camera& camera, FrameContext& ctx) {
  const RenderConfig rc = config.render_config();
  if (config.residency == ResidencyMode::kFloat32) {
    cloud.decode_range(0, cloud.size(), ctx.decoded);
    preprocess_into(ctx.decoded, camera, rc, ctx.counters, ctx.splats, ctx.preprocess);
  } else {
    preprocess_compressed_into(cloud, camera, rc, ctx.counters, ctx.splats, ctx.preprocess,
                               ctx.decode);
  }
}

/// The frame up to its ordering step: preprocess, then group
/// identification and bitmask generation over the frame's grids.
template <class Cloud>
void begin(const GsTgConfig& config, const Cloud& cloud, const Camera& camera,
           FrameContext& ctx) {
  ctx.times = {};
  ctx.counters = {};
  ctx.quality = {};
  {
    GSTG_STAGE("preprocess", &ctx.times.preprocess_ms);
    preprocess_stage(config, cloud, camera, ctx);
  }

  // Group identification is bin_splats at group granularity; charged to
  // the preprocessing stage like the paper.
  ctx.frame.config = config;
  ctx.frame.tile_grid = CellGrid::over_image(camera.width(), camera.height(), config.tile_size);
  ctx.frame.group_grid = CellGrid::over_image(camera.width(), camera.height(), config.group_size);
  {
    GSTG_STAGE("binning", &ctx.times.preprocess_ms);
    bin_splats_into(ctx.splats, ctx.frame.group_grid, config.group_boundary, config.threads,
                    ctx.counters, ctx.frame.group_bins, ctx.binning);
  }
  {
    // Bitmask generation (sequential here; overlapped with sorting in HW).
    // When group identification already decided every mask (r = 1 with one
    // boundary method: the per-tile baseline), writing them is part of that
    // step and no bitmask stage is charged.
    GSTG_STAGE("bitmask", config.group_test_is_tile_test() ? &ctx.times.preprocess_ms
                                                           : &ctx.times.bitmask_ms);
    generate_bitmasks_into(ctx.splats, ctx.frame.group_bins, ctx.frame.tile_grid, config,
                           ctx.counters, ctx.frame.masks);
  }
}

/// The plain group sort; `sort_ms` is the field it adds to (nullptr: none).
void order(const GsTgConfig& config, FrameContext& ctx, double* sort_ms) {
  GSTG_STAGE("sort_groups", sort_ms);
  sort_groups(ctx.frame.group_bins, ctx.frame.masks, ctx.splats, config.threads, ctx.counters,
              SortAlgo::kAuto, &ctx.sort);
}

template <class Cloud>
void render_frame(const GsTgConfig& config, const Cloud& cloud, const Camera& camera,
                  FrameContext& ctx);

/// The config every kVerify audit compares with: float32 residency, the
/// exact pipeline, no temporal reuse.
GsTgConfig reference_config(GsTgConfig config) {
  config.residency = ResidencyMode::kFloat32;
  config.pipeline = PipelineMode::kExact;
  config.temporal = TemporalMode::kOff;
  return config;
}

FrameContext& reference_context(FrameContext& ctx) {
  if (!ctx.reference) ctx.reference = std::make_unique<FrameContext>();
  return *ctx.reference;
}

template <class Cloud>
const FrameContext& reference_frame(const GsTgConfig& config, const Cloud& cloud,
                                    const Camera& camera, FrameContext& ctx) {
  FrameContext& reference = reference_context(ctx);
  render_frame(reference_config(config), cloud, camera, reference);
  return reference;
}

/// The residency audit: the streamed splat stream must equal the up-front
/// decode's bit for bit.
void audit_splats(const FrameContext& ctx, const FrameContext& reference) {
  if (reference.counters.input_gaussians != ctx.counters.input_gaussians ||
      reference.counters.visible_gaussians != ctx.counters.visible_gaussians) {
    throw ResidencyError("verify: streamed preprocess counters diverge (visible " +
                         std::to_string(ctx.counters.visible_gaussians) + " vs " +
                         std::to_string(reference.counters.visible_gaussians) + ")");
  }
  if (ctx.splats.size() != reference.splats.size()) {
    throw ResidencyError("verify: streamed survivor count " + std::to_string(ctx.splats.size()) +
                         " != up-front count " + std::to_string(reference.splats.size()));
  }
  for (std::size_t i = 0; i < ctx.splats.size(); ++i) {
    if (!splats_identical(ctx.splats[i], reference.splats[i])) {
      throw ResidencyError("verify: splat " + std::to_string(i) + " (cloud index " +
                           std::to_string(ctx.splats[i].index) +
                           ") differs between streamed and up-front decode");
    }
  }
}

/// The raster stage, then the frame's residency (compressed clouds only)
/// and pipeline audits against one reference frame, outside every field.
/// The sortless pipelines ran no ordering: the raw bin order feeds the
/// order-independent kernel directly (its output is invariant under any
/// reordering), so sort_ms and sort_pairs stay zero.
template <class Cloud>
void end(const GsTgConfig& config, const Cloud& cloud, const Camera& camera,
         FrameContext& ctx) {
  {
    // Tile-wise rasterization with bitmask filtering.
    GSTG_STAGE("raster", &ctx.times.raster_ms);
    ctx.image.resize(camera.width(), camera.height());
    if (config.pipeline == PipelineMode::kExact) {
      rasterize_grouped(ctx.frame, ctx.splats, ctx.image, config.threads, ctx.counters,
                        &ctx.raster);
    } else {
      rasterize_grouped_sortless(ctx.frame, ctx.splats, ctx.image, config.threads, ctx.counters,
                                 &ctx.raster);
    }
  }

  const bool residency_audit = std::is_same_v<Cloud, CompressedCloud> &&
                               config.residency == ResidencyMode::kVerify;
  const bool pipeline_audit = config.pipeline == PipelineMode::kVerify;
  if (!residency_audit && !pipeline_audit) return;
  GSTG_SPAN("audit");
  const FrameContext& reference = reference_frame(config, cloud, camera, ctx);
  if (residency_audit) audit_splats(ctx, reference);
  if (pipeline_audit) ctx.quality = image_quality(reference.image, ctx.image);
}

/// One whole frame; the exact pipeline orders with the plain group sort.
template <class Cloud>
void render_frame(const GsTgConfig& config, const Cloud& cloud, const Camera& camera,
                  FrameContext& ctx) {
  GSTG_SPAN("frame");
  begin(config, cloud, camera, ctx);
  if (config.pipeline == PipelineMode::kExact) order(config, ctx, &ctx.times.sort_ms);
  end(config, cloud, camera, ctx);
}

}  // namespace

void Renderer::render(const GaussianCloud& cloud, const Camera& camera,
                      FrameContext& ctx) const {
  render_frame(config_, cloud, camera, ctx);
}

void Renderer::render(const CompressedCloud& cloud, const Camera& camera,
                      FrameContext& ctx) const {
  render_frame(config_, cloud, camera, ctx);
}

void Renderer::begin_frame(const GaussianCloud& cloud, const Camera& camera,
                           FrameContext& ctx) const {
  begin(config_, cloud, camera, ctx);
}

void Renderer::order_groups(FrameContext& ctx) const { order(config_, ctx, nullptr); }

void Renderer::end_frame(const GaussianCloud& cloud, const Camera& camera,
                         FrameContext& ctx) const {
  end(config_, cloud, camera, ctx);
}

const FrameContext& Renderer::order_reference(const GaussianCloud& cloud, const Camera& camera,
                                              FrameContext& ctx) const {
  FrameContext& reference = reference_context(ctx);
  const GsTgConfig config = reference_config(config_);
  begin(config, cloud, camera, reference);
  order(config, reference, &reference.times.sort_ms);
  return reference;
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
  // One FrameContext per view worker; the shared cursor hands out frames
  // dynamically so a heavy view does not stall the tail of the batch.
  std::atomic<std::size_t> next{0};
  const auto drain = [&] {
    FrameContext ctx;
    for (std::size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) {
      renderer.render(cloud, cameras[i], ctx);
      result.images[i] = ctx.image;
      result.times[i] = ctx.times;
      result.counters[i] = ctx.counters;
    }
  };
  if (workers <= 1) {
    drain();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (std::size_t w = 0; w < workers; ++w) pool.emplace_back(drain);
    for (std::thread& t : pool) t.join();
  }
  result.wall_ms = timer.elapsed_ms();

  for (const RenderCounters& c : result.counters) result.total.merge(c);
  return result;
}

}  // namespace gstg
