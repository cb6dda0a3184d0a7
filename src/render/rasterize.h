// Tile-wise rasterization: alpha computation (paper eq. 1) and front-to-back
// alpha blending (eq. 2) with the 1/255 alpha skip and 1e-4 transmittance
// early exit. The single-tile routine is shared by the baseline pipeline
// (per-tile sorted lists) and GS-TG (group-sorted list filtered by bitmask).
//
// The inner loop runs through the SIMD kernel table (render/simd_kernels.h):
// a SimdPolicy selects the lane width (scalar / SSE4.2 / AVX2 / NEON, kAuto =
// widest verified backend) and the exponential mode. Exact mode is
// bit-identical across every backend; counters are exact under vectorization
// in both modes.
#pragma once

#include <cstdint>
#include <span>

#include "common/annotations.h"
#include "common/simd.h"
#include "render/binning.h"
#include "render/framebuffer.h"
#include "render/types.h"

namespace gstg {

/// Per-tile rasterization statistics (merged into RenderCounters).
struct TileRasterStats {
  std::size_t alpha_computations = 0;
  std::size_t blend_ops = 0;
  std::size_t early_exit_pixels = 0;
  std::size_t pixel_list_work = 0;
  std::size_t pixels = 0;

  void accumulate(const TileRasterStats& s) {
    alpha_computations += s.alpha_computations;
    blend_ops += s.blend_ops;
    early_exit_pixels += s.early_exit_pixels;
    pixel_list_work += s.pixel_list_work;
    pixels += s.pixels;
  }
};

/// Reusable per-worker blending buffers in structure-of-arrays layout (lane
/// kernels stream them directly): pixel centres, transmittance, accumulated
/// colour channels and the surviving pixel index, all compacted together
/// when pixels hit the transmittance early exit. Sized to the largest tile
/// seen so far (rounded up to the widest lane count).
struct TileRasterScratch {
  std::vector<float> px;
  std::vector<float> py;
  std::vector<float> transmittance;
  std::vector<float> r;
  std::vector<float> g;
  std::vector<float> b;
  std::vector<std::uint32_t> pixel;
};

/// Rasterizes the depth-ordered splat sequence `order` into the pixel block
/// [x0, x1) x [y0, y1) of `fb` (block must lie inside the framebuffer).
/// Pixel centres are at integer + 0.5. Returns the work statistics;
/// `alpha_computations` counts the (pixel, splat) pairs whose quad
/// evaluation passed the footprint guard (0 <= q <= 2 ln(255 sigma)) — the
/// alpha evaluations the datapath actually performs, the paper's Fig. 7
/// workload quantity.
TileRasterStats rasterize_tile(std::span<const ProjectedSplat> splats,
                               std::span<const std::uint32_t> order, int x0, int y0, int x1,
                               int y1, Framebuffer& fb, SimdPolicy simd = {});

/// rasterize_tile() with caller-owned blending buffers (no allocations once
/// the scratch has warmed up to the tile size).
GSTG_HOT_NOALLOC
TileRasterStats rasterize_tile(std::span<const ProjectedSplat> splats,
                               std::span<const std::uint32_t> order, int x0, int y0, int x1,
                               int y1, Framebuffer& fb, TileRasterScratch& scratch,
                               SimdPolicy simd = {});

/// Full-image rasterization over per-tile sorted lists: the stage form of
/// the per-tile pipeline, kept as an independent reference (render_baseline
/// itself rasterizes through core's rasterize_grouped at r = 1).
void rasterize_all(const BinnedSplats& bins, std::span<const ProjectedSplat> splats,
                   Framebuffer& fb, std::size_t threads, RenderCounters& counters,
                   SimdPolicy simd = {});

/// Depth falloff rate of the order-independent weight
/// w = alpha * 2^(-beta * (depth - dmin) / (dmax - dmin)): the nearest splat
/// in a tile carries 2^beta times the weight of the farthest, which is the
/// scene-scale-invariant stand-in for front-to-back occlusion.
inline constexpr float kSortlessDepthBeta = 6.0f;

/// Reusable per-worker accumulators of the sortless (order-independent
/// transmittance) tile kernel. Accumulation is int64 fixed point — each
/// (pixel, splat) contribution is quantized once and integer sums are
/// associative/commutative — so the blended image is bit-identical across
/// thread counts, SIMD backends AND splat-list orders.
struct SortlessRasterScratch {
  std::vector<float> px;               ///< one row of pixel-centre x, lane-padded
  std::vector<std::int64_t> acc_w;     ///< Σ Q30(alpha * depth_weight)
  std::vector<std::int64_t> acc_r;     ///< Σ Q30(alpha * depth_weight * rgb)
  std::vector<std::int64_t> acc_g;
  std::vector<std::int64_t> acc_b;
  std::vector<std::int64_t> acc_t;     ///< Σ Q32(log2(1 - alpha))
};

/// Order-independent transmittance rasterization of the UNSORTED splat
/// sequence `order` into [x0, x1) x [y0, y1) of `fb` (the kSortless /
/// kVerify pipelines — see common/runconfig.h). Two differences from
/// rasterize_tile: the result is an approximation of sorted blending
/// (weighted average scaled by total coverage 1 - Π(1 - alpha)), and there
/// is no transmittance early exit (`early_exit_pixels` is always 0 — an
/// exit would reintroduce order dependence). Footprint evaluation is
/// axis-shared: the dy-dependent quad terms are hoisted per pixel row.
GSTG_HOT_NOALLOC
TileRasterStats rasterize_tile_sortless(std::span<const ProjectedSplat> splats,
                                        std::span<const std::uint32_t> order, int x0, int y0,
                                        int x1, int y1, Framebuffer& fb,
                                        SortlessRasterScratch& scratch, SimdPolicy simd = {});
}  // namespace gstg
