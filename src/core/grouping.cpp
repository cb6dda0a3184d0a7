#include "core/grouping.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <stdexcept>

#include "common/parallel.h"
#include "render/rasterize.h"
#include "render/simd_kernels.h"
#include "telemetry/trace.h"

namespace gstg {

void generate_bitmasks_into(std::span<const ProjectedSplat> splats,
                            const BinnedSplats& group_bins, const CellGrid& tile_grid,
                            const GsTgConfig& config, RenderCounters& counters,
                            std::vector<TileMask>& masks) {
  config.validate();
  const CellGrid& group_grid = group_bins.grid;
  const int r = config.tiles_per_side();
  if (config.group_test_is_tile_test()) {
    // The group identification already ran each entry's tile test.
    masks.assign(group_bins.splat_ids.size(), 1);
    return;
  }
  masks.assign(group_bins.splat_ids.size(), 0);

  std::atomic<std::size_t> tests{0};

  const std::size_t groups = static_cast<std::size_t>(group_grid.cell_count());
  parallel_for_chunks(0, groups, [&](std::size_t lo, std::size_t hi, std::size_t) {
    std::size_t local_tests = 0;
    for (std::size_t g = lo; g < hi; ++g) {
      const int gx = static_cast<int>(g) % group_grid.cells_x;
      const int gy = static_cast<int>(g) / group_grid.cells_x;
      // Global tile-index window covered by this group, clipped to the grid.
      const int tx_lo = gx * r;
      const int ty_lo = gy * r;
      const int tx_hi = std::min(tile_grid.cells_x, tx_lo + r);
      const int ty_hi = std::min(tile_grid.cells_y, ty_lo + r);

      for (std::uint32_t e = group_bins.offsets[g]; e < group_bins.offsets[g + 1]; ++e) {
        const ProjectedSplat& s = splats[group_bins.splat_ids[e]];
        // Restrict to the splat's AABB candidate range — the same candidate
        // enumeration baseline binning uses, so hit sets match exactly.
        const TileRange cand = candidate_cells(s, tile_grid);
        const int x0 = std::max(tx_lo, cand.tx0);
        const int x1 = std::min(tx_hi, cand.tx1);
        const int y0 = std::max(ty_lo, cand.ty0);
        const int y1 = std::min(ty_hi, cand.ty1);
        if (x0 >= x1 || y0 >= y1) continue;

        TileMask mask = 0;
        if (config.mask_boundary == Boundary::kAabb) {
          for (int ty = y0; ty < y1; ++ty) {
            for (int tx = x0; tx < x1; ++tx) {
              ++local_tests;
              mask |= TileMask{1} << mask_bit_index(tx - tx_lo, ty - ty_lo, r);
            }
          }
        } else {
          const Ellipse footprint = s.footprint();
          const Obb obb =
              config.mask_boundary == Boundary::kObb ? Obb::from_ellipse(footprint) : Obb{};
          for (int ty = y0; ty < y1; ++ty) {
            for (int tx = x0; tx < x1; ++tx) {
              const Rect rect = tile_rect(tx, ty, tile_grid.cell_size, tile_grid.image_width,
                                          tile_grid.image_height);
              ++local_tests;
              const bool hit = config.mask_boundary == Boundary::kObb
                                   ? obb_intersects(obb, rect)
                                   : ellipse_intersects(footprint, rect);
              if (hit) mask |= TileMask{1} << mask_bit_index(tx - tx_lo, ty - ty_lo, r);
            }
          }
        }
        masks[e] = mask;
      }
    }
    tests.fetch_add(local_tests, std::memory_order_relaxed);
  }, config.threads);

  counters.bitmask_tests += tests.load();
}

void sort_group_entries(std::uint32_t* ids, TileMask* masks, std::size_t n,
                        std::span<const ProjectedSplat> splats, int key_bits, int index_bits,
                        SortWorkerScratch& ws) {
  ws.pairs += n;
  if (n <= 1) return;

  // Packed (depth_bits, index) keys order by (depth, index). The value half
  // carries the id (high 32) plus the entry's original position (low 32),
  // which gathers the mask from the snapshot in ws.masks after the sort.
  if (ws.items.size() < n) ws.items.resize(n);
  if (ws.masks.size() < n) ws.masks.resize(n);
  for (std::size_t k = 0; k < n; ++k) {
    const std::uint32_t id = ids[k];
    ws.items[k] = {pack_depth_index_key(splats[id].depth, splats[id].index, index_bits),
                   (static_cast<std::uint64_t>(id) << 32) | k};
    ws.masks[k] = masks[k];
  }
  sort_items(ws, n, key_bits);
  for (std::size_t k = 0; k < n; ++k) {
    const std::uint64_t value = ws.items[k].value;
    ids[k] = static_cast<std::uint32_t>(value >> 32);
    masks[k] = ws.masks[static_cast<std::uint32_t>(value)];
  }
}

void sort_groups(BinnedSplats& group_bins, std::vector<TileMask>& masks,
                 std::span<const ProjectedSplat> splats, std::size_t threads,
                 RenderCounters& counters, SortAlgo, SortScratch* scratch) {
  if (masks.size() != group_bins.splat_ids.size()) {
    throw std::invalid_argument("sort_groups: mask array size mismatch");
  }
  const std::size_t groups = static_cast<std::size_t>(group_bins.grid.cell_count());

  // Per-worker accumulator slots sized from the exact worker count so
  // indices can never alias (the double merge order stays fixed).
  const std::size_t workers = planned_worker_count(groups, threads);
  SortScratch local_scratch;
  SortScratch& s = scratch != nullptr ? *scratch : local_scratch;
  s.prepare(workers);

  // Compact the key's index half to its true width so the radix path runs
  // the minimum number of passes (depth always needs its full 32 bits).
  std::uint32_t max_index = 0;
  for (const ProjectedSplat& splat : splats) max_index = std::max(max_index, splat.index);
  const int key_bits = depth_index_key_bits(max_index);
  const int index_bits = key_bits - 32;

  parallel_for_chunks(0, groups, [&](std::size_t lo, std::size_t hi, std::size_t worker) {
    GSTG_SPAN("sort_groups_chunk");
    SortWorkerScratch& ws = s.workers[worker];
    for (std::size_t g = lo; g < hi; ++g) {
      const std::uint32_t begin = group_bins.offsets[g];
      const std::uint32_t end = group_bins.offsets[g + 1];
      sort_group_entries(group_bins.splat_ids.data() + begin, masks.data() + begin, end - begin,
                         splats, key_bits, index_bits, ws);
    }
  }, threads);

  for (std::size_t w = 0; w < workers; ++w) {
    counters.sort_comparison_volume += s.workers[w].volume;
    counters.sort_pairs += s.workers[w].pairs;
  }
}

namespace {

/// Tile-major expansion of the group lists (the RM's AND-filter, done by
/// mask bits): rs.tile_ids[rs.tile_offsets[t] ..) lists, in group-list
/// order, the splats of tile t's group whose bitmask has t's bit set —
/// exactly the entries the per-tile filter `masks[e] & location` keeps.
/// One pass per group counts (countr_zero over each mask), a prefix sum
/// sizes the lists, and a second pass per group scatters. Both passes run
/// in parallel over groups without atomics: each tile belongs to exactly
/// one group. Bits of tiles clipped off the grid's right or bottom edge
/// are ignored, as the per-tile filter never queried them. Returns the
/// filter_checks count — Σ over tiles of their group's list length, or 0
/// under group_test_is_tile_test, where each tile's list is its group's.
std::size_t expand_tile_lists(const GroupedFrame& frame, std::size_t threads,
                              RasterScratch& rs) {
  GSTG_SPAN("raster_expand");
  const CellGrid& tile_grid = frame.tile_grid;
  const CellGrid& group_grid = frame.group_grid;
  const BinnedSplats& bins = frame.group_bins;
  if (frame.config.group_test_is_tile_test()) {
    rs.tile_offsets.assign(bins.offsets.begin(), bins.offsets.end());
    rs.tile_ids.assign(bins.splat_ids.begin(), bins.splat_ids.end());
    return 0;
  }
  const int r = frame.config.tiles_per_side();
  const std::size_t groups = static_cast<std::size_t>(group_grid.cell_count());

  // Calls visit(entry, tile) for every in-grid set mask bit of every entry
  // of groups [lo, hi), in entry order, and returns those groups' share of
  // filter_checks (in-grid tiles × list length).
  const auto for_each_entry_tile = [&](std::size_t lo, std::size_t hi, auto&& visit) {
    std::array<std::uint32_t, 64> tile_of_bit{};
    std::size_t group_checks = 0;
    for (std::size_t g = lo; g < hi; ++g) {
      const int gx = static_cast<int>(g) % group_grid.cells_x;
      const int gy = static_cast<int>(g) / group_grid.cells_x;
      const int w = std::min(r, tile_grid.cells_x - gx * r);
      const int h = std::min(r, tile_grid.cells_y - gy * r);
      TileMask valid = 0;
      for (int ly = 0; ly < h; ++ly) {
        for (int lx = 0; lx < w; ++lx) {
          const int bit = mask_bit_index(lx, ly, r);
          tile_of_bit[static_cast<std::size_t>(bit)] =
              static_cast<std::uint32_t>(tile_grid.cell_index(gx * r + lx, gy * r + ly));
          valid |= TileMask{1} << bit;
        }
      }
      const std::uint32_t begin = bins.offsets[g], end = bins.offsets[g + 1];
      group_checks += static_cast<std::size_t>(std::popcount(valid)) * (end - begin);
      for (std::uint32_t e = begin; e < end; ++e) {
        for (TileMask m = frame.masks[e] & valid; m != 0; m &= m - 1) {
          visit(e, tile_of_bit[static_cast<std::size_t>(std::countr_zero(m))]);
        }
      }
    }
    return group_checks;
  };

  rs.tile_counts.assign(static_cast<std::size_t>(tile_grid.cell_count()), 0);
  std::atomic<std::size_t> checks{0};
  parallel_for_chunks(0, groups, [&](std::size_t lo, std::size_t hi, std::size_t) {
    checks.fetch_add(
        for_each_entry_tile(lo, hi, [&](std::uint32_t, std::uint32_t t) { ++rs.tile_counts[t]; }),
        std::memory_order_relaxed);
  }, threads);

  const std::uint32_t total = csr_offsets_from_counts(rs.tile_counts, rs.tile_offsets);
  rs.tile_ids.resize(total);
  std::copy_n(rs.tile_offsets.begin(), rs.tile_counts.size(), rs.tile_counts.begin());

  parallel_for_chunks(0, groups, [&](std::size_t lo, std::size_t hi, std::size_t) {
    for_each_entry_tile(lo, hi, [&](std::uint32_t e, std::uint32_t t) {
      rs.tile_ids[rs.tile_counts[t]++] = bins.splat_ids[e];
    });
  }, threads);
  return checks.load();
}

/// Shared tile loop of the exact and sortless grouped rasterizers: the
/// mask-indexed tile lists, then `raster_tile(worker, list, x0, y0, x1,
/// y1)` per tile — the only stage the two paths differ in.
template <typename TileFn>
void rasterize_grouped_impl(const GroupedFrame& frame, std::size_t threads,
                            RenderCounters& counters, RasterScratch* scratch,
                            TileFn&& raster_tile) {
  const CellGrid& tile_grid = frame.tile_grid;
  const std::size_t tiles = static_cast<std::size_t>(tile_grid.cell_count());

  // Per-worker reusable buffers sized from the exact worker count. Each
  // tile writes only its own stats slot, so the frame counters are their
  // sum after the loop.
  const std::size_t workers = planned_worker_count(tiles, threads);
  RasterScratch local_scratch;
  RasterScratch& rs = scratch != nullptr ? *scratch : local_scratch;
  if (rs.workers.size() < workers) rs.workers.resize(workers);
  rs.tile_stats.resize(tiles);

  counters.filter_checks += expand_tile_lists(frame, threads, rs);

  parallel_for_chunks(0, tiles, [&](std::size_t lo, std::size_t hi, std::size_t worker) {
    GSTG_SPAN("raster_chunk");
    RasterScratch::Worker& wk = rs.workers[worker];
    for (std::size_t t = lo; t < hi; ++t) {
      const int tx = static_cast<int>(t) % tile_grid.cells_x;
      const int ty = static_cast<int>(t) / tile_grid.cells_x;
      const std::span<const std::uint32_t> list(rs.tile_ids.data() + rs.tile_offsets[t],
                                                rs.tile_offsets[t + 1] - rs.tile_offsets[t]);
      const int x0 = tx * tile_grid.cell_size;
      const int y0 = ty * tile_grid.cell_size;
      const int x1 = std::min(x0 + tile_grid.cell_size, tile_grid.image_width);
      const int y1 = std::min(y0 + tile_grid.cell_size, tile_grid.image_height);
      rs.tile_stats[t] = raster_tile(wk, list, x0, y0, x1, y1);
    }
  }, threads);

  TileRasterStats total;
  for (const TileRasterStats& s : rs.tile_stats) total.accumulate(s);
  counters.alpha_computations += total.alpha_computations;
  counters.blend_ops += total.blend_ops;
  counters.early_exit_pixels += total.early_exit_pixels;
  counters.pixel_list_work += total.pixel_list_work;
  counters.total_pixels += total.pixels;
}

}  // namespace

void rasterize_grouped(const GroupedFrame& frame, std::span<const ProjectedSplat> splats,
                       Framebuffer& fb, std::size_t threads, RenderCounters& counters,
                       RasterScratch* scratch) {
  // Backend resolution happens once per frame; every tile kernel call then
  // dispatches on a concrete backend.
  const SimdPolicy simd{resolve_simd_backend(frame.config.simd.backend)};
  rasterize_grouped_impl(frame, threads, counters, scratch,
                         [&](RasterScratch::Worker& wk, std::span<const std::uint32_t> filtered,
                             int x0, int y0, int x1, int y1) {
                           return rasterize_tile(splats, filtered, x0, y0, x1, y1, fb, wk.tile,
                                                 simd);
                         });
}

void rasterize_grouped_sortless(const GroupedFrame& frame,
                                std::span<const ProjectedSplat> splats, Framebuffer& fb,
                                std::size_t threads, RenderCounters& counters,
                                RasterScratch* scratch) {
  const SimdPolicy simd{resolve_simd_backend(frame.config.simd.backend)};
  rasterize_grouped_impl(frame, threads, counters, scratch,
                         [&](RasterScratch::Worker& wk, std::span<const std::uint32_t> filtered,
                             int x0, int y0, int x1, int y1) {
                           return rasterize_tile_sortless(splats, filtered, x0, y0, x1, y1, fb,
                                                          wk.sortless, simd);
                         });
}

}  // namespace gstg
