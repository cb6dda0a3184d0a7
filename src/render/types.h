// Shared types for the software rendering pipelines: configuration, the
// projected splat record, per-stage timings, and the operation counters that
// back the paper's profiling figures.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/runconfig.h"
#include "common/simd.h"
#include "geometry/ellipse.h"
#include "geometry/intersect.h"
#include "geometry/sym2.h"
#include "geometry/vec.h"
#include "render/sort_keys.h"

namespace gstg {

/// Rendering thresholds from the 3D-GS reference implementation (paper II-B).
inline constexpr float kAlphaThreshold = 1.0f / 255.0f;       ///< skip blending below this
inline constexpr float kTransmittanceThreshold = 1.0e-4f;     ///< early-exit when T drops below
inline constexpr float kAlphaClamp = 0.99f;                   ///< max per-splat alpha

/// Baseline renderer configuration.
struct RenderConfig {
  int tile_size = 16;
  Boundary boundary = Boundary::kEllipse;
  /// When true, each splat's extent rho is 2 ln(255 sigma) instead of the
  /// 3-sigma rule — the opacity-aware bound FlashGS introduced.
  bool opacity_aware_rho = false;
  /// Per-tile sort algorithm (kAuto = radix for long lists, comparison for
  /// short ones; every choice produces the identical ordering).
  SortAlgo sort_algo = SortAlgo::kAuto;
  /// SIMD kernel policy for the preprocess/rasterize hot paths: backend
  /// (kAuto = widest verified, overridable via GSTG_SIMD) and exponential
  /// mode (kExact keeps bit-identity with the scalar path, the default).
  SimdPolicy simd;
  /// Tile-identification strategy (render/binning.h): flat single-level
  /// binning, the hierarchical coarse→fine pass, kAuto (hierarchical on
  /// large grids — the default), or kVerify (hierarchical audited
  /// bit-identical against flat). Every mode produces identical per-cell
  /// hit sets.
  BinningMode binning = BinningMode::kAuto;
  /// Blending discipline (common/runconfig.h): kExact depth-sorts per
  /// tile, kSortless skips the per-tile sort and blends with
  /// order-independent transmittance (lossy, quality-gated), kVerify ships
  /// the sortless image and reports PSNR/SSIM vs exact.
  PipelineMode pipeline = PipelineMode::kExact;
  /// Worker threads (0 = auto).
  std::size_t threads = 0;
};

/// One culled, projected Gaussian ready for binning and rasterization.
struct ProjectedSplat {
  Vec2 center;       ///< pixel-space mean (2D_XY)
  Sym2 cov;          ///< screen-space covariance (2D_Cov)
  Sym2 conic;        ///< inverse covariance
  float depth = 0;   ///< view-space z (D)
  float opacity = 0; ///< sigma
  Vec3 rgb;          ///< view-dependent colour (G_RGB)
  float rho = 9.0f;  ///< footprint contour level
  std::uint32_t index = 0;  ///< original index in the cloud

  [[nodiscard]] Ellipse footprint() const {
    Ellipse e;
    e.center = center;
    e.cov = cov;
    e.conic = conic;
    e.rho = rho;
    return e;
  }
};

/// Wall-clock per-stage timings (milliseconds). The paper's three-stage
/// split: preprocessing = feature computation + culling + tile (or group)
/// identification; sorting; rasterization. GS-TG adds bitmask generation,
/// reported separately and attributed per execution model (see core/).
struct StageTimes {
  double preprocess_ms = 0.0;
  double sort_ms = 0.0;
  double raster_ms = 0.0;
  double bitmask_ms = 0.0;  ///< GS-TG only

  [[nodiscard]] double total_ms() const {
    return preprocess_ms + sort_ms + raster_ms + bitmask_ms;
  }
};

/// Operation counters backing Table I and Figs. 5/7/13.
struct RenderCounters {
  std::size_t input_gaussians = 0;
  std::size_t visible_gaussians = 0;   ///< after frustum culling
  std::size_t boundary_tests = 0;      ///< tile/group-rect intersection tests
  std::size_t tile_pairs = 0;          ///< Σ over splats of intersected tiles
  /// (splat, coarse-cell) records emitted by hierarchical binning — the
  /// intermediate CSR volume of the two-level pass (zero when binning flat).
  std::size_t coarse_pairs = 0;
  std::size_t splats_multi_tile = 0;   ///< visible splats hitting >= 2 tiles
  std::size_t sort_pairs = 0;          ///< total entries across per-tile/group sort lists
  /// Sorting-work proxy: comparison sorts account a list of n entries as
  /// n * log2(n); radix paths (per-list or global) account n * passes with
  /// 8-bit digits. Well-defined for either algorithm so the paper's
  /// workload-reduction ratios compare like against like.
  double sort_comparison_volume = 0;
  /// Alpha evaluations actually performed: (pixel, splat) pairs whose quad
  /// passed the in-range guard 0 <= q <= 2 ln(255 sigma). Out-of-footprint
  /// pairs are excluded (they never reach the exp/blend datapath), matching
  /// the paper's Fig. 7 per-pixel workload definition.
  std::size_t alpha_computations = 0;
  std::size_t blend_ops = 0;           ///< alpha >= 1/255 blends
  std::size_t early_exit_pixels = 0;   ///< pixels that hit the transmittance exit
  std::size_t pixel_list_work = 0;     ///< Σ over pixels of their tile's list length
  std::size_t total_pixels = 0;
  // GS-TG-specific work counters (zero for the baseline pipeline):
  std::size_t bitmask_tests = 0;   ///< per-(splat, small-tile) boundary tests in bitmask gen
  /// The hardware raster module's AND-filter count: Σ over tiles of the
  /// tile's group list length (every entry is checked against every tile of
  /// its group). The CPU raster builds its tile lists from mask bits instead
  /// and computes this count arithmetically.
  std::size_t filter_checks = 0;

  /// Fig. 5 metric: average number of intersected tiles per visible Gaussian.
  [[nodiscard]] double tiles_per_gaussian() const {
    return visible_gaussians ? static_cast<double>(tile_pairs) / static_cast<double>(visible_gaussians)
                             : 0.0;
  }
  /// Table I metric: share of visible Gaussians appearing in >= 2 tiles.
  [[nodiscard]] double shared_gaussian_percent() const {
    return visible_gaussians ? 100.0 * static_cast<double>(splats_multi_tile) /
                                   static_cast<double>(visible_gaussians)
                             : 0.0;
  }
  /// Fig. 7 metric: average per-pixel Gaussian workload (list length seen by
  /// each pixel, before alpha skipping / early exit).
  [[nodiscard]] double gaussians_per_pixel() const {
    return total_pixels ? static_cast<double>(pixel_list_work) / static_cast<double>(total_pixels)
                        : 0.0;
  }

  void merge(const RenderCounters& other) {
    input_gaussians += other.input_gaussians;
    visible_gaussians += other.visible_gaussians;
    boundary_tests += other.boundary_tests;
    tile_pairs += other.tile_pairs;
    coarse_pairs += other.coarse_pairs;
    splats_multi_tile += other.splats_multi_tile;
    sort_pairs += other.sort_pairs;
    sort_comparison_volume += other.sort_comparison_volume;
    alpha_computations += other.alpha_computations;
    blend_ops += other.blend_ops;
    early_exit_pixels += other.early_exit_pixels;
    pixel_list_work += other.pixel_list_work;
    total_pixels += other.total_pixels;
    bitmask_tests += other.bitmask_tests;
    filter_checks += other.filter_checks;
  }
};

}  // namespace gstg
