// GS-TG pipeline configuration: tile/group geometry and the boundary
// methods of the two identification steps (paper sections IV-B and VI-B).
#pragma once

#include <cstdint>

#include "common/runconfig.h"
#include "geometry/intersect.h"
#include "render/simd_kernels.h"
#include "render/sort_keys.h"
#include "render/types.h"

namespace gstg {

/// Per-Gaussian tile bitmask within a group. The hardware uses 16 bits
/// (4x4 tiles per group, the 16+64 configuration); the software pipeline
/// supports up to 64 tiles per group to cover the Fig. 11 sweep (8+64).
using TileMask = std::uint64_t;

/// The renderers use a config exactly as given. The four mode fields
/// (pipeline, residency, temporal, simd.backend) have GSTG_* environment
/// overrides that only process edges apply, through resolve_from_env
/// (common/runconfig.h); the library never reads them.
struct GsTgConfig {
  int tile_size = 16;
  int group_size = 64;
  /// Boundary method of the group identification step.
  Boundary group_boundary = Boundary::kEllipse;
  /// Boundary method of the per-tile bitmask generation step.
  Boundary mask_boundary = Boundary::kEllipse;
  /// Opacity-aware footprint extent (FlashGS-style) instead of 3-sigma.
  bool opacity_aware_rho = false;
  /// Read by nothing; it stays only so that perfbench/ builds unchanged.
  SortAlgo sort_algo = SortAlgo::kAuto;
  /// SIMD kernel policy for preprocess/rasterize (see common/simd.h): the
  /// kAuto backend resolves to the widest verified one; an explicit backend
  /// the build or CPU lacks fails validate(). Every backend renders
  /// bit-identical images.
  SimdPolicy simd;
  /// Cross-frame group-sort reuse mode of the temporal renderer
  /// (src/temporal/temporal_renderer.h). kOff by default so the one-shot and
  /// batch paths are untouched; every mode is pixel-exact — reuse only
  /// happens when the cached order is provably the sorted order, and kVerify
  /// re-sorts to audit that proof.
  TemporalMode temporal = TemporalMode::kOff;
  /// Read by nothing; it stays only so that perfbench/ builds unchanged.
  BinningMode binning = BinningMode::kAuto;
  /// Resident-form policy of the compressed render path — only consulted by
  /// Renderer::render(const CompressedCloud&, ...): kCompressed (the default)
  /// streams fp16 blocks through per-worker decode scratch, kFloat32 decodes
  /// the whole cloud up front, and kVerify runs both preprocesses and throws
  /// ResidencyError unless the streamed splat stream is bit-identical to the
  /// up-front one.
  ResidencyMode residency = ResidencyMode::kCompressed;
  /// Blending discipline (common/runconfig.h): kExact (the default) keeps the
  /// depth-sorted, bit-identical pipeline; kSortless skips group sorting
  /// entirely and blends with order-independent transmittance — intentionally
  /// lossy, gated on a PSNR/SSIM floor (bench_quality) instead of the
  /// lossless gate; kVerify ships the sortless image and also renders the
  /// exact reference, reporting per-frame quality (FrameContext::quality).
  PipelineMode pipeline = PipelineMode::kExact;
  std::size_t threads = 0;  ///< 0 = auto
  /// Starts the process-global trace collector (src/telemetry/trace.h) when
  /// a Renderer is constructed with this config. GSTG_TRACE=<path> does the
  /// same from the environment and additionally names the JSON written at
  /// process exit; with only `trace` set, the caller drains via
  /// telemetry::TraceSession::global().write(path). Tracing is
  /// observational: counters and images are bit-identical either way.
  bool trace = false;

  /// The RenderConfig this GS-TG config implies for the stages shared with
  /// the baseline pipeline (preprocessing, per-tile sorting in comparison
  /// runs). The single mapping keeps the one-shot and persistent renderers
  /// from drifting apart.
  [[nodiscard]] RenderConfig render_config() const {
    RenderConfig rc;
    rc.tile_size = tile_size;
    rc.boundary = mask_boundary;
    rc.opacity_aware_rho = opacity_aware_rho;
    rc.simd = simd;
    rc.pipeline = pipeline;
    rc.threads = threads;
    return rc;
  }

  /// True at r = 1 with one boundary method for both steps: each group is
  /// one tile whose test the group identification already ran on the same
  /// rectangle, so every mask is 1 without a test and the raster's
  /// AND-filter checks nothing (the per-tile baseline, tile_sorted_config).
  [[nodiscard]] bool group_test_is_tile_test() const {
    return tiles_per_side() == 1 && mask_boundary == group_boundary;
  }

  /// Tiles per group side; group_size must be a positive multiple of
  /// tile_size so small tiles align perfectly inside groups (paper Fig. 8b —
  /// the alignment that makes the method lossless).
  [[nodiscard]] int tiles_per_side() const { return group_size / tile_size; }
  [[nodiscard]] int tiles_per_group() const { return tiles_per_side() * tiles_per_side(); }

  /// Throws the typed ConfigError (a std::invalid_argument) for a rejected
  /// geometry, mode combination or unavailable SIMD backend.
  void validate() const {
    if (tile_size <= 0 || group_size <= 0) {
      throw ConfigError("GsTgConfig: sizes must be positive");
    }
    if (group_size % tile_size != 0) {
      throw ConfigError(
          "GsTgConfig: group_size must be a multiple of tile_size (tile alignment)");
    }
    if (tiles_per_group() > 64) {
      throw ConfigError("GsTgConfig: more than 64 tiles per group (bitmask overflow)");
    }
    if (pipeline != PipelineMode::kExact && temporal == TemporalMode::kVerify) {
      // Temporal kVerify audits that a reused group order is still the exact
      // sorted order — meaningless when the sortless pipeline never sorts.
      throw ConfigError(
          "GsTgConfig: temporal kVerify requires the exact pipeline "
          "(sortless blending never sorts, so there is no order to audit)");
    }
    require_simd_backend(simd.backend);
  }

  /// True when the (group, mask) boundary pair guarantees pixel-exact
  /// equality with the baseline using `mask_boundary` tiles. Requires every
  /// tile-level hit to imply a group-level hit: the mask shape must be
  /// contained in the group shape (Ellipse ⊆ OBB ⊆ AABB, each the previous
  /// one's bounding shape), so a tile the mask test keeps lies in a group
  /// the group test kept. All combinations the paper evaluates satisfy this.
  [[nodiscard]] bool lossless_guaranteed() const {
    const auto rank = [](Boundary b) {
      switch (b) {
        case Boundary::kAabb:
          return 0;  // loosest
        case Boundary::kObb:
          return 1;
        case Boundary::kEllipse:
          return 2;  // tightest
      }
      return 0;
    };
    return rank(mask_boundary) >= rank(group_boundary);
  }
};

/// The GS-TG configuration that renders `rc`'s per-tile pipeline (paper
/// Fig. 1): the degenerate grouping, one tile per group (r = 1) with
/// `rc.boundary` for both identification steps, so each group list is that
/// tile's sorted list. The inverse of GsTgConfig::render_config(); the
/// fields RenderConfig lacks keep their defaults.
[[nodiscard]] inline GsTgConfig tile_sorted_config(const RenderConfig& rc) {
  GsTgConfig config;
  config.tile_size = rc.tile_size;
  config.group_size = rc.tile_size;
  config.group_boundary = rc.boundary;
  config.mask_boundary = rc.boundary;
  config.opacity_aware_rho = rc.opacity_aware_rho;
  config.simd = rc.simd;
  config.pipeline = rc.pipeline;
  config.threads = rc.threads;
  return config;
}

}  // namespace gstg
