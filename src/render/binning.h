// Tile identification ("binning"): assigns every projected splat to the
// grid cells its footprint intersects, using one of the three boundary
// methods (AABB / OBB / Ellipse). The same routine serves the baseline's
// tile grid and GS-TG's group grid — a group is just a larger cell.
//
// Two strategies produce the same per-cell hit sets (BinningMode):
//
//   kFlat          one boundary test per fine-cell candidate of the
//                  footprint's AABB range — the original single-level pass.
//                  The count pass records each hit and the scatter pass
//                  replays the records, so no test runs twice, and every
//                  cell lists its splats in ascending splat order for any
//                  thread count.
//   kHierarchical  coarse cells (kCoarseCellFactor fine cells on a side)
//                  are binned first; only the non-empty coarse cells are
//                  expanded into the fine CSR lists. Splats covering at
//                  least kCoarseTestMinCells coarse cells get a three-way
//                  coarse classification — miss (prunes the whole window
//                  of fine candidates; sound because every boundary test
//                  is monotone under rectangle containment), contained
//                  (the coarse rect sits inside the footprint, so every
//                  fine candidate under it is emitted untested), or
//                  partial (fine candidates tested per cell). Smaller
//                  footprints skip coarse testing outright — the fine pass
//                  filters them at no extra cost — and two hit proofs
//                  avoid fine tests as well: a splat whose AABB provably
//                  sits inside one fine cell, and any cell whose rectangle
//                  contains the footprint centre (the minimum Mahalanobis
//                  distance there is zero). Fine binning is parallel over
//                  coarse cells with no atomics — each fine cell belongs
//                  to exactly one coarse cell — so the pass scales with
//                  the non-empty portion of the grid rather than with
//                  candidates × resolution. Its coarse scatter leaves the
//                  order within a cell unspecified.
//   kAuto          hierarchical when the grid has at least
//                  kAutoHierarchicalMinCells cells, flat otherwise (tiny
//                  grids cannot amortise the coarse pass).
//   kVerify        hierarchical, plus a flat reference run; both CSR
//                  outputs are canonically (depth, index)-sorted per cell
//                  and must be bit-identical, else BinningError is thrown.
//
// Counter semantics: tile_pairs and splats_multi_tile are identical across
// modes (the hit sets are). boundary_tests measures the tests the chosen
// strategy actually performed, so hierarchical reports fewer on real
// scenes; the new coarse_pairs counter sizes the intermediate coarse CSR.
// kVerify reports hierarchical's accounting (the flat reference run's is
// discarded).
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
/// scale, a cell grid whose cell count exceeds int, or a kVerify mismatch.
/// Distinct from std::invalid_argument (caller misuse) the same way
/// PlyError marks bad input data.
class BinningError : public std::runtime_error {
 public:
  explicit BinningError(const std::string& message)
      : std::runtime_error("binning: " + message) {}
};

/// Coarse cell edge length in fine cells for the hierarchical pass (a
/// coarse cell covers kCoarseCellFactor² fine cells).
inline constexpr int kCoarseCellFactor = 2;

/// Minimum coarse-cell count of a splat's candidate range before the
/// hierarchical pass boundary-tests coarse rectangles. Below this the
/// classification cannot pay for itself: on dense footprints nearly every
/// coarse candidate intersects, so each coarse test would add work the
/// windowed fine tests perform anyway. Small footprints are emitted to
/// their coarse cells untested and filtered at the fine level only.
inline constexpr int kCoarseTestMinCells = 16;

/// Grid size at which BinningMode::kAuto switches to the hierarchical pass.
inline constexpr int kAutoHierarchicalMinCells = 512;

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
/// FrameContext. The flat pass keeps one list of hit cell ids per worker
/// (in splat order) plus per-(worker, cell) counts that become the scatter
/// cursors, so its scatter replays recorded hits instead of re-testing
/// them; the remaining vectors carry the hierarchical pass's coarse CSR and
/// per-splat classification, and the kVerify reference run. All grow to the
/// workload once and are then reused allocation-free.
struct BinningScratch {
  std::vector<std::uint32_t> cell_counts;    ///< per cell: hits, then (hierarchical) cursors
  std::vector<std::uint32_t> splat_hits;     ///< per splat: cells hit
  // Flat pass state:
  std::vector<std::vector<std::uint32_t>> hit_cells;  ///< per worker: cell id of every hit
  std::vector<std::uint32_t> worker_counts;  ///< per (worker, cell): hits, then cursors
  // Hierarchical two-level state:
  std::vector<std::uint32_t> coarse_counts;   ///< per coarse cell, then cursors
  std::vector<std::uint32_t> coarse_offsets;  ///< coarse CSR offsets
  std::vector<std::uint32_t> coarse_ids;      ///< coarse CSR (splat ids)
  std::vector<std::uint8_t> coarse_flags;     ///< per coarse record: 1 = contained
  std::vector<TileRange> fine_ranges;         ///< per splat: clipped fine candidate range
  std::vector<std::uint8_t> kinds;            ///< per splat: footprint classification
  // kVerify state:
  BinnedSplats reference;                    ///< flat reference CSR
  std::vector<std::uint32_t> sorted_a, sorted_b;  ///< canonically sorted copies
};

/// Resolves kAuto against the grid (hierarchical from
/// kAutoHierarchicalMinCells cells up); other modes pass through.
[[nodiscard]] BinningMode resolve_binning_mode(BinningMode mode, const CellGrid& grid);

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
/// holds by construction — for every BinningMode. Updates boundary_tests,
/// tile_pairs, splats_multi_tile and coarse_pairs in `counters`.
BinnedSplats bin_splats(std::span<const ProjectedSplat> splats, const CellGrid& grid,
                        Boundary boundary, std::size_t threads, RenderCounters& counters,
                        BinningMode mode = BinningMode::kFlat);

/// bin_splats() into caller-owned CSR storage, reusing `scratch`. `out`'s
/// vectors are resized in place; in the steady state (same grid, same pair
/// count) no allocation happens. kVerify additionally allocates per call
/// for the canonical-sort copies — it is an audit mode.
GSTG_HOT_NOALLOC
void bin_splats_into(std::span<const ProjectedSplat> splats, const CellGrid& grid,
                     Boundary boundary, std::size_t threads, RenderCounters& counters,
                     BinnedSplats& out, BinningScratch& scratch,
                     BinningMode mode = BinningMode::kFlat);

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
/// number of boundary tests performed. Shared by flat bin_splats and the
/// global radix-sort path so both enumerate identical hit sets in identical
/// order; the hierarchical pass reproduces exactly this hit set per cell.
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
