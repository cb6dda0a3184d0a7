// Tile identification ("binning"): assigns every projected splat to the
// grid cells its footprint intersects, using one of the three boundary
// methods (AABB / OBB / Ellipse). The same routine serves the baseline's
// tile grid and GS-TG's group grid — a group is just a larger cell.
//
// One boundary test per candidate cell of the footprint's AABB range
// (GS-TG §IV). The count pass records each hit and the scatter pass
// replays the records, so no test runs twice, and every cell lists its
// splats in ascending splat order for any thread count.
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/annotations.h"
#include "common/runconfig.h"
#include "geometry/clamped_cast.h"
#include "render/types.h"

namespace gstg {

/// Typed failure of the binning stage: CSR index-space overflow at full
/// scale, or a cell grid whose cell count exceeds int.
/// Distinct from std::invalid_argument (caller misuse) the same way
/// PlyError marks bad input data.
class BinningError : public std::runtime_error {
 public:
  explicit BinningError(const std::string& message)
      : std::runtime_error("binning: " + message) {}
};

/// A uniform grid of square cells covering the image.
struct CellGrid {
  int cell_size = 16;
  int cells_x = 0;
  int cells_y = 0;
  int image_width = 0;
  int image_height = 0;

  /// Throws std::invalid_argument on non-positive dimensions and
  /// BinningError when cells_x * cells_y would overflow the int cell-index
  /// space (full-scale guard: cell_count() must stay exact).
  static CellGrid over_image(int image_width, int image_height, int cell_size);

  [[nodiscard]] int cell_count() const { return cells_x * cells_y; }
  [[nodiscard]] int cell_index(int cx, int cy) const { return cy * cells_x + cx; }
};

/// CSR lists: splats_of_cell(c) = splat_ids[offsets[c] .. offsets[c+1]).
/// Entries index into the ProjectedSplat vector passed to bin_splats.
struct BinnedSplats {
  CellGrid grid;
  std::vector<std::uint32_t> offsets;    // grid.cell_count() + 1
  std::vector<std::uint32_t> splat_ids;  // tile_pairs entries

  [[nodiscard]] std::span<const std::uint32_t> cell_list(int cell) const {
    return {splat_ids.data() + offsets[cell], offsets[cell + 1] - offsets[cell]};
  }
  [[nodiscard]] std::size_t cell_size_of(int cell) const {
    return offsets[cell + 1] - offsets[cell];
  }
};

/// Reusable binning scratch, owned by the persistent renderer's
/// FrameContext: one list of hit cell ids per worker (in splat order) plus
/// per-(worker, cell) counts that become the scatter cursors, so the
/// scatter replays recorded hits instead of re-testing them. All grow to
/// the workload once and are then reused allocation-free.
struct BinningScratch {
  std::vector<std::uint32_t> cell_counts;             ///< per cell: hits
  std::vector<std::uint32_t> splat_hits;              ///< per splat: cells hit
  std::vector<std::vector<std::uint32_t>> hit_cells;  ///< per worker: cell id of every hit
  std::vector<std::uint32_t> worker_counts;  ///< per (worker, cell): hits, then cursors
};

/// CSR offsets (counts.size() + 1 entries) from per-cell counts; returns
/// the total. Throws BinningError when the total overflows the 32-bit CSR
/// index space instead of silently wrapping and scattering out of bounds —
/// the regime full-scale scenes can reach. Exposed for the overflow
/// regression tests (an in-process 2^32-pair workload is not testable).
std::uint32_t csr_offsets_from_counts(std::span<const std::uint32_t> counts,
                                      std::vector<std::uint32_t>& offsets);

/// Bins splats into grid cells. Candidate cells come from the footprint's
/// axis-aligned bounding box; OBB/Ellipse refine each candidate (the
/// GSCore/FlashGS strategy), so tiles(Ellipse) ⊆ tiles(OBB) ⊆ tiles(AABB)
/// holds by construction. Updates boundary_tests, tile_pairs and
/// splats_multi_tile in `counters`. The trailing BinningMode is read by
/// nothing; it stays only so that perfbench/ builds unchanged.
BinnedSplats bin_splats(std::span<const ProjectedSplat> splats, const CellGrid& grid,
                        Boundary boundary, std::size_t threads, RenderCounters& counters,
                        BinningMode = BinningMode::kAuto);

/// bin_splats() into caller-owned CSR storage, reusing `scratch`. `out`'s
/// vectors are resized in place; in the steady state (same grid, same pair
/// count) no allocation happens. The trailing BinningMode is read by
/// nothing; it stays only so that perfbench/ builds unchanged.
GSTG_HOT_NOALLOC
void bin_splats_into(std::span<const ProjectedSplat> splats, const CellGrid& grid,
                     Boundary boundary, std::size_t threads, RenderCounters& counters,
                     BinnedSplats& out, BinningScratch& scratch,
                     BinningMode = BinningMode::kAuto);

/// Candidate range of an AABB, clipped to the grid. Any NaN coordinate
/// makes the validity comparison fail and yields the empty range; an
/// infinite but ordered box (huge rho) covers the full grid.
inline TileRange range_of_box(const Rect& box, const CellGrid& grid) {
  if (!(box.x0 <= box.x1) || !(box.y0 <= box.y1)) return {};
  const float cs = static_cast<float>(grid.cell_size);
  return TileRange{clamped_cell_floor(box.x0, cs, grid.cells_x, 0),
                   clamped_cell_floor(box.y0, cs, grid.cells_y, 0),
                   clamped_cell_floor(box.x1, cs, grid.cells_x, 1),
                   clamped_cell_floor(box.y1, cs, grid.cells_y, 1)};
}

/// Cell range of the footprint's AABB clipped to the grid (exposed for the
/// bitmask generator, which iterates the same candidates inside a group).
/// The scaling and clamping happen in the float domain before any cast:
/// degenerate splats (huge rho, non-finite mean/conic) yield the full grid
/// or the empty range instead of undefined float→int conversions. A
/// non-finite AABB that is not an honest [-inf, +inf] cover (any NaN
/// coordinate) is rejected as empty.
inline TileRange candidate_cells(const ProjectedSplat& splat, const CellGrid& grid) {
  return range_of_box(splat.footprint().aabb(), grid);
}

/// Calls visit(cell_index) for every cell the splat's footprint intersects
/// under `boundary`, enumerating candidates from the AABB range; returns the
/// number of boundary tests performed. Shared by bin_splats and the global
/// radix-sort path so both enumerate identical hit sets in identical order.
template <typename Visit>
std::size_t for_each_hit_cell(const ProjectedSplat& splat, const CellGrid& grid,
                              Boundary boundary, Visit&& visit) {
  const TileRange range = candidate_cells(splat, grid);
  if (range.empty()) return 0;
  std::size_t tests = 0;

  if (boundary == Boundary::kAabb) {
    // The AABB method *is* the candidate enumeration: every cell overlapping
    // the bounding box is a hit. Each candidate still costs one range check.
    for (int cy = range.ty0; cy < range.ty1; ++cy) {
      for (int cx = range.tx0; cx < range.tx1; ++cx) {
        ++tests;
        visit(grid.cell_index(cx, cy));
      }
    }
    return tests;
  }

  const Ellipse footprint = splat.footprint();
  const Obb obb = boundary == Boundary::kObb ? Obb::from_ellipse(footprint) : Obb{};
  for (int cy = range.ty0; cy < range.ty1; ++cy) {
    for (int cx = range.tx0; cx < range.tx1; ++cx) {
      const Rect rect = tile_rect(cx, cy, grid.cell_size, grid.image_width, grid.image_height);
      ++tests;
      const bool hit = boundary == Boundary::kObb ? obb_intersects(obb, rect)
                                                  : ellipse_intersects(footprint, rect);
      if (hit) visit(grid.cell_index(cx, cy));
    }
  }
  return tests;
}

}  // namespace gstg
