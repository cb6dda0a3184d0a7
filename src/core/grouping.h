// The GS-TG tile-grouping stages (paper section IV-B):
//   group identification -> bitmask generation -> group-wise sorting
//   -> bitmask-filtered tile-wise rasterization.
// Each stage is exposed separately so tests can probe invariants and the
// cycle-level simulator can consume the intermediate data.
#pragma once

#include <span>
#include <vector>

#include "common/annotations.h"
#include "core/gstg_config.h"
#include "render/binning.h"
#include "render/framebuffer.h"
#include "render/rasterize.h"
#include "render/sort_keys.h"
#include "render/types.h"

namespace gstg {

/// Intermediate state of a GS-TG frame after grouping/sorting: the group
/// grid, per-group depth-sorted splat lists, and the per-entry tile
/// bitmasks (parallel to group_bins.splat_ids).
struct GroupedFrame {
  GsTgConfig config;
  CellGrid tile_grid;
  CellGrid group_grid;
  BinnedSplats group_bins;
  std::vector<TileMask> masks;
};

/// Group identification: bins splats at group granularity with the group
/// boundary method. Counter semantics match baseline binning, but at group
/// scale — tile_pairs then measures the *sorting* volume GS-TG pays.
BinnedSplats identify_groups(std::span<const ProjectedSplat> splats, const CellGrid& group_grid,
                             const GsTgConfig& config, RenderCounters& counters);

/// Bitmask generation: for every (group, splat) entry, marks which small
/// tiles inside the group the splat's footprint touches, using the mask
/// boundary method. Tests are restricted to the splat's AABB candidate
/// range, mirroring baseline binning, so the effective per-tile hit set is
/// identical to a baseline run with the same boundary (the lossless
/// property). Writes one mask per entry into the caller-owned `masks`
/// (resized in place) and updates counters.bitmask_tests. Under
/// config.group_test_is_tile_test() every mask is 1 and no test runs.
GSTG_HOT_NOALLOC
void generate_bitmasks_into(std::span<const ProjectedSplat> splats,
                            const BinnedSplats& group_bins, const CellGrid& tile_grid,
                            const GsTgConfig& config, RenderCounters& counters,
                            std::vector<TileMask>& masks);

/// Group-wise sorting: orders each group's (splat, mask) entries by
/// (depth, index). A filtered subsequence is then automatically in the same
/// order as the baseline's per-tile sorted list. Each group's length picks
/// its sort (sort_items, render/sort_keys.h). The unnamed SortAlgo
/// is read by nothing; it stays only so that perfbench/ builds unchanged.
/// `scratch` reuses one SortScratch across frames (nullptr = self-contained
/// call).
GSTG_HOT_NOALLOC
void sort_groups(BinnedSplats& group_bins, std::vector<TileMask>& masks,
                 std::span<const ProjectedSplat> splats, std::size_t threads,
                 RenderCounters& counters, SortAlgo = SortAlgo::kAuto,
                 SortScratch* scratch = nullptr);

/// Sorts one group's entry range ids[0..n) / masks[0..n) in place by the
/// packed (depth, index) key — the single per-group sort both sort_groups
/// and the temporal renderer's fallback path call, so a re-sorted group is
/// bit-identical whichever caller ran it. Accounts the group into
/// ws.pairs / ws.volume exactly as sort_groups always has (pairs for every
/// entry, volume only when n >= 2). `key_bits`/`index_bits` come from
/// depth_index_key_bits over the frame's maximum splat index.
GSTG_HOT_NOALLOC
void sort_group_entries(std::uint32_t* ids, TileMask* masks, std::size_t n,
                        std::span<const ProjectedSplat> splats, int key_bits, int index_bits,
                        SortWorkerScratch& ws);

/// Reusable rasterization buffers for rasterize_grouped and
/// rasterize_grouped_sortless: the tile-major lists expanded from the
/// group lists by mask bits, plus the per-worker blending scratch of both
/// tile kernels (exact and sortless). After a call, tile_offsets/tile_ids
/// and tile_stats describe the frame just rasterized, tile by tile — the
/// per-unit work the accelerator model (sim/workload.h) reads.
struct RasterScratch {
  struct Worker {
    TileRasterScratch tile;
    SortlessRasterScratch sortless;
  };
  std::vector<Worker> workers;
  std::vector<std::uint32_t> tile_counts;   ///< per tile: list length, then scatter cursors
  std::vector<std::uint32_t> tile_offsets;  ///< tile-list CSR offsets (tiles + 1)
  std::vector<std::uint32_t> tile_ids;      ///< per tile: splat ids in group-list order
  std::vector<TileRasterStats> tile_stats;  ///< per tile: the tile kernel's stats
};

/// Tile-wise rasterization over group-sorted lists: each tile gets the
/// entries of its group whose bitmask has the tile's bit set (the RM's
/// AND-filter), in group-list order, and runs the shared tile rasterizer.
/// The lists come from one pass per group that appends every entry to the
/// tiles named by its set mask bits, so an entry costs its popcount rather
/// than one check per tile of the group. counters.filter_checks still
/// reports the hardware filter's work — Σ over tiles of the group's list
/// length, or 0 when config.group_test_is_tile_test() proved every mask —
/// alongside the usual rasterization counters. `scratch` reuses
/// the lists and per-worker buffers across frames (nullptr = self-contained
/// call).
GSTG_HOT_NOALLOC
void rasterize_grouped(const GroupedFrame& frame, std::span<const ProjectedSplat> splats,
                       Framebuffer& fb, std::size_t threads, RenderCounters& counters,
                       RasterScratch* scratch = nullptr);

/// rasterize_grouped() with the sortless (order-independent transmittance)
/// tile kernel: the same bitmask AND-filter per tile, but the filtered list
/// is blended WITHOUT sort_groups having run — the kSortless/kVerify
/// pipelines (common/runconfig.h). The blended image is bit-identical
/// regardless of entry order, so the frame's bins need no sort.
GSTG_HOT_NOALLOC
void rasterize_grouped_sortless(const GroupedFrame& frame,
                                std::span<const ProjectedSplat> splats, Framebuffer& fb,
                                std::size_t threads, RenderCounters& counters,
                                RasterScratch* scratch = nullptr);

/// Local-tile bit index inside a group (row-major over the group's tiles).
constexpr int mask_bit_index(int local_tx, int local_ty, int tiles_per_side) {
  return local_ty * tiles_per_side + local_tx;
}

}  // namespace gstg
