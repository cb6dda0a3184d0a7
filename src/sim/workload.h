// Frame workload extraction: distils the per-unit operation counts the
// cycle simulator consumes from one rendered frame. Each builder renders a
// single exact Renderer frame (core/renderer.h) and reads its products —
// the sorted group lists, the tile lists and the per-tile raster stats —
// instead of running a pipeline of its own. The baseline and GSCore frames
// are GS-TG frames at r = 1 (group_size == tile_size, equal boundaries,
// flat binning), whose group lists are the per-tile sorted lists. Using
// measured workloads (real list lengths, real alpha-evaluation counts
// including early exit) keeps the simulator faithful to the actual
// rendering work of a scene rather than to analytic approximations.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "camera/camera.h"
#include "core/gstg_config.h"
#include "gaussian/cloud.h"
#include "render/types.h"

namespace gstg {

/// One sorting work unit: a group (GS-TG) or a tile (baseline / GSCore).
struct SortUnit {
  std::uint32_t n = 0;  ///< list length to sort
};

/// One bitmask-generation work unit (GS-TG only): a group.
struct BgmUnit {
  std::uint32_t entries = 0;  ///< (splat, group) entries
  std::uint32_t tests = 0;    ///< tile boundary tests across those entries
};

/// One rasterization work unit: a tile.
struct RasterUnit {
  std::uint32_t filter_len = 0;     ///< entries scanned by the bitmask filter (GS-TG)
  std::uint32_t raster_entries = 0; ///< splats rasterized in this tile
  std::uint64_t alpha_evals = 0;    ///< measured alpha evaluations (in-footprint pairs
                                    ///< only, after the early exit — the RM datapath work)
  std::uint32_t pixels = 0;
  std::uint32_t sort_unit = 0;      ///< owning group (GS-TG) or own index (others)
};

/// Everything the cycle simulator needs for one frame on one design.
struct FrameWorkload {
  std::string scene;
  std::string design;
  std::size_t input_gaussians = 0;
  std::size_t visible_gaussians = 0;
  std::size_t ident_tests = 0;  ///< PM group/tile identification boundary tests
  std::vector<SortUnit> sorts;
  std::vector<BgmUnit> bgm;     ///< empty unless the design has a BGM
  std::vector<RasterUnit> tiles;
  std::size_t total_pixels = 0;

  // DRAM traffic (bytes).
  std::size_t param_bytes = 0;      ///< full parameter read for preprocessing
  std::size_t feature_bytes = 0;    ///< per-pair projected-feature fetches
  std::size_t list_bytes = 0;       ///< sorted index lists, write + read
  std::size_t framebuffer_bytes = 0;
  /// Bytes a sort unit holds on chip per list entry — the sorting working
  /// set the 42KB banks buffer: fp32 depth + 32-bit index (8B), plus the
  /// 16-bit tile bitmask for GS-TG (10B). Projected features are charged
  /// separately in feature_bytes. Drives the buffer-spill model.
  std::size_t working_set_entry_bytes = 8;

  [[nodiscard]] std::size_t total_bytes() const {
    return param_bytes + feature_bytes + list_bytes + framebuffer_bytes;
  }
};

/// GS-TG design: group-level sorting + bitmask generation + filtered tile
/// rasterization. Feature fetches are shared across a group (the group
/// shared memory in Fig. 10), the key DRAM saving.
FrameWorkload build_gstg_workload(const GaussianCloud& cloud, const Camera& camera,
                                  const GsTgConfig& config);

/// Conventional pipeline on the same hardware (the paper's baseline):
/// per-tile sorting, no bitmask stage, per-tile feature fetches. Read from
/// the GS-TG frame at r = 1 with `config`'s tile size and boundary.
FrameWorkload build_tile_sorted_workload(const GaussianCloud& cloud, const Camera& camera,
                                         const RenderConfig& config, const std::string& design);

/// GSCore model: OBB binning, per-tile hierarchical sorting and a
/// rasterizer that skips subtiles whose rect misses the splat OBB (2x2
/// subtiles per tile, GSCore's coarse skip granularity). Read from the
/// kObb GS-TG frame at r = 1; alpha_evals are reduced to the
/// covered-subtile area, scaled by the tile's early-exit factor.
FrameWorkload build_gscore_workload(const GaussianCloud& cloud, const Camera& camera,
                                    int tile_size, int subtiles_per_side = 2);

}  // namespace gstg
