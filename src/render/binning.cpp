#include "render/binning.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "common/parallel.h"

namespace gstg {

namespace {

/// Per-splat footprint classification of the hierarchical pass.
enum SplatKind : std::uint8_t {
  kEmptyKind = 0,    ///< no candidate cells (culled, off-screen, NaN box)
  kSingleHit = 1,    ///< AABB provably inside one fine cell: hit, no test
  kGeneralKind = 2,  ///< everything else: boundary-tested per level
};

/// True when the splat's AABB sits entirely inside the single fine cell of
/// its (1×1, unclipped) candidate range — then the cell rectangle contains
/// the footprint center, which makes all three boundary tests succeed
/// unconditionally (AABB/OBB always; Ellipse because the rect-contains-
/// center branch of min_mahalanobis_sq_on_rect returns 0 ≤ rho, hence the
/// rho >= 0 requirement), so the test can be skipped without changing the
/// hit set.
bool is_single_cell_hit(const Rect& box, const TileRange& range, const CellGrid& grid,
                        float rho) {
  return range.tx1 - range.tx0 == 1 && range.ty1 - range.ty0 == 1 &&
         box.x0 >= 0.0f && box.y0 >= 0.0f &&
         box.x1 <= static_cast<float>(grid.image_width) &&
         box.y1 <= static_cast<float>(grid.image_height) && rho >= 0.0f;
}

/// Coarse-cell range covering a fine-cell range (both clipped to their
/// grids, which tile the same image).
TileRange coarse_range_of(const TileRange& fine, int factor) {
  TileRange r;
  r.tx0 = fine.tx0 / factor;
  r.ty0 = fine.ty0 / factor;
  r.tx1 = static_cast<int>((static_cast<long long>(fine.tx1) + factor - 1) / factor);
  r.ty1 = static_cast<int>((static_cast<long long>(fine.ty1) + factor - 1) / factor);
  return r;
}

/// Flat binning. Pass 1 is the only geometry: each worker runs
/// for_each_hit_cell once over its contiguous chunk of splats, appending
/// every hit's cell id to its own record list and counting it per
/// (worker, cell) — no atomics, each test counted once. The cell totals
/// give the CSR offsets; the per-(worker, cell) counts become cursors laid
/// out worker by worker inside each cell. Pass 2 replays the records into
/// the CSR under the same chunking, so every cell lists its splats in
/// ascending splat order whatever the thread count.
void flat_bin_splats_into(std::span<const ProjectedSplat> splats, const CellGrid& grid,
                          Boundary boundary, std::size_t threads, RenderCounters& counters,
                          BinnedSplats& out, BinningScratch& scratch) {
  out.grid = grid;
  const std::size_t cells = static_cast<std::size_t>(grid.cell_count());
  const std::size_t workers = planned_worker_count(splats.size(), threads);
  if (scratch.hit_cells.size() < workers) scratch.hit_cells.resize(workers);
  scratch.worker_counts.assign(workers * cells, 0);
  scratch.splat_hits.resize(splats.size());
  std::atomic<std::size_t> tests{0}, multi{0};

  parallel_for_chunks(0, splats.size(), [&](std::size_t lo, std::size_t hi, std::size_t w) {
    std::vector<std::uint32_t>& records = scratch.hit_cells[w];
    std::uint32_t* counts = scratch.worker_counts.data() + w * cells;
    records.clear();
    std::size_t local_tests = 0, local_multi = 0;
    for (std::size_t i = lo; i < hi; ++i) {
      const std::size_t before = records.size();
      local_tests += for_each_hit_cell(splats[i], grid, boundary, [&](int cell) {
        records.push_back(static_cast<std::uint32_t>(cell));
        ++counts[cell];
      });
      // A splat hits each cell at most once, so its count fits the int
      // cell-index space; the record list itself stops at the CSR limit
      // (the prefix sum below would reject the total anyway).
      const std::size_t hits = records.size() - before;
      if (records.size() > std::numeric_limits<std::uint32_t>::max()) {
        throw BinningError("flat pass recorded more than 2^32 (splat, cell) pairs");
      }
      scratch.splat_hits[i] = static_cast<std::uint32_t>(hits);
      if (hits >= 2) ++local_multi;
    }
    tests.fetch_add(local_tests, std::memory_order_relaxed);
    multi.fetch_add(local_multi, std::memory_order_relaxed);
  }, threads);

  counters.boundary_tests += tests.load();
  counters.splats_multi_tile += multi.load();

  // Overflow-checked prefix sum of the cell totals, then per-(worker, cell)
  // cursors: worker w's hits in cell c start after those of workers < w.
  scratch.cell_counts.assign(cells, 0);
  for (std::size_t w = 0; w < workers; ++w) {
    const std::uint32_t* counts = scratch.worker_counts.data() + w * cells;
    for (std::size_t c = 0; c < cells; ++c) scratch.cell_counts[c] += counts[c];
  }
  const std::uint32_t total = csr_offsets_from_counts(scratch.cell_counts, out.offsets);
  counters.tile_pairs += total;
  out.splat_ids.resize(total);
  for (std::size_t c = 0; c < cells; ++c) {
    std::uint32_t cursor = out.offsets[c];
    for (std::size_t w = 0; w < workers; ++w) {
      std::uint32_t& slot = scratch.worker_counts[w * cells + c];
      const std::uint32_t n = slot;
      slot = cursor;
      cursor += n;
    }
  }

  parallel_for_chunks(0, splats.size(), [&](std::size_t lo, std::size_t hi, std::size_t w) {
    const std::uint32_t* record = scratch.hit_cells[w].data();
    std::uint32_t* cursors = scratch.worker_counts.data() + w * cells;
    for (std::size_t i = lo; i < hi; ++i) {
      for (std::uint32_t k = scratch.splat_hits[i]; k != 0; --k) {
        out.splat_ids[cursors[*record++]++] = static_cast<std::uint32_t>(i);
      }
    }
  }, threads);
}

/// Three-way verdict of one coarse-rect boundary evaluation.
enum class CoarseClass : std::uint8_t { kMiss, kPartial, kContained };

/// Rect fully inside the OBB: all four corners project within both half
/// extents (exact for a convex box). Any NaN in the OBB fails the corner
/// comparisons and falls back to the intersection verdict.
CoarseClass classify_obb_rect(const Obb& obb, const Rect& rect) {
  const auto inside = [&](float x, float y) {
    const Vec2 d{x - obb.center.x, y - obb.center.y};
    return std::fabs(dot(d, obb.axis1)) <= obb.half1 &&
           std::fabs(dot(d, obb.axis2)) <= obb.half2;
  };
  if (inside(rect.x0, rect.y0) && inside(rect.x1, rect.y0) && inside(rect.x0, rect.y1) &&
      inside(rect.x1, rect.y1)) {
    return CoarseClass::kContained;
  }
  return obb_intersects(obb, rect) ? CoarseClass::kPartial : CoarseClass::kMiss;
}

/// Rect fully inside the ellipse: with a PSD conic the Mahalanobis
/// quadratic is convex, so its maximum over the rect sits at a corner —
/// four corner evaluations bound the whole cell. A non-PSD or non-finite
/// conic (degenerate covariance) skips the containment claim and falls
/// back to the intersection verdict, which keeps the classification
/// consistent with the flat per-cell test for every adversarial input.
CoarseClass classify_ellipse_rect(const Ellipse& e, const Rect& rect) {
  const Sym2& q = e.conic;
  if (q.xx >= 0.0f && q.yy >= 0.0f && q.xx * q.yy - q.xy * q.xy >= 0.0f) {
    const auto inside = [&](float x, float y) {
      const float dx = x - e.center.x;
      const float dy = y - e.center.y;
      return q.xx * dx * dx + 2.0f * q.xy * dx * dy + q.yy * dy * dy <= e.rho;
    };
    if (inside(rect.x0, rect.y0) && inside(rect.x1, rect.y0) && inside(rect.x0, rect.y1) &&
        inside(rect.x1, rect.y1)) {
      return CoarseClass::kContained;
    }
  }
  return ellipse_intersects(e, rect) ? CoarseClass::kPartial : CoarseClass::kMiss;
}

/// Enumerates the coarse cells a general splat occupies as
/// visit(cell, contained). Only footprints covering at least
/// kCoarseTestMinCells coarse cells are classified (one counted test per
/// coarse rect): a miss prunes the whole fine window — sound because every
/// boundary test is monotone under rectangle containment (fine rects are
/// subsets of their coarse rect) — and a contained rect emits its fine
/// window untested (every sub-rect of a rect inside the footprint still
/// touches it). Smaller ranges, and all kAabb ranges (every coarse
/// candidate overlaps the box by construction), are emitted untested: a
/// coarse test there could only prune work the windowed fine tests perform
/// anyway, so skipping it keeps hierarchical tests <= flat tests.
template <typename Visit>
std::size_t for_each_coarse_cell(const ProjectedSplat& splat, const TileRange& cr,
                                 const CellGrid& coarse, Boundary boundary, Visit&& visit) {
  if (boundary == Boundary::kAabb || cr.count() < kCoarseTestMinCells) {
    for (int cy = cr.ty0; cy < cr.ty1; ++cy) {
      for (int cx = cr.tx0; cx < cr.tx1; ++cx) {
        visit(coarse.cell_index(cx, cy), false);
      }
    }
    return 0;
  }
  std::size_t tests = 0;
  const Ellipse footprint = splat.footprint();
  const Obb obb = boundary == Boundary::kObb ? Obb::from_ellipse(footprint) : Obb{};
  for (int cy = cr.ty0; cy < cr.ty1; ++cy) {
    for (int cx = cr.tx0; cx < cr.tx1; ++cx) {
      const Rect rect =
          tile_rect(cx, cy, coarse.cell_size, coarse.image_width, coarse.image_height);
      ++tests;
      const CoarseClass verdict = boundary == Boundary::kObb
                                      ? classify_obb_rect(obb, rect)
                                      : classify_ellipse_rect(footprint, rect);
      if (verdict != CoarseClass::kMiss) {
        visit(coarse.cell_index(cx, cy), verdict == CoarseClass::kContained);
      }
    }
  }
  return tests;
}

/// Fine-cell expansion of one coarse record: visits the splat's fine hits
/// inside the coarse cell's window of fine cells. For kAabb the clipped
/// window *is* the hit set (one range intersection, counted as one test);
/// a contained record's window is emitted untested (the coarse rect — and
/// so every fine rect under it — sits inside the footprint). Otherwise
/// each windowed candidate is boundary-tested like the flat pass, except
/// that a cell whose rectangle holds the footprint centre is a guaranteed
/// hit for every boundary (the minimum Mahalanobis distance there is zero,
/// an OBB always covers its own centre) and is emitted on the point-in-
/// rect precheck alone.
template <typename Visit>
std::size_t expand_record(const ProjectedSplat& splat, const TileRange& fine_range,
                          bool contained, int fx0, int fy0, int fx1, int fy1,
                          const CellGrid& grid, Boundary boundary, Visit&& visit) {
  const int x0 = std::max(fine_range.tx0, fx0), x1 = std::min(fine_range.tx1, fx1);
  const int y0 = std::max(fine_range.ty0, fy0), y1 = std::min(fine_range.ty1, fy1);
  if (x0 >= x1 || y0 >= y1) return 0;
  if (boundary == Boundary::kAabb || contained) {
    for (int cy = y0; cy < y1; ++cy) {
      for (int cx = x0; cx < x1; ++cx) visit(grid.cell_index(cx, cy));
    }
    return boundary == Boundary::kAabb ? 1 : 0;
  }
  std::size_t tests = 0;
  const Ellipse footprint = splat.footprint();
  const Obb obb = boundary == Boundary::kObb ? Obb::from_ellipse(footprint) : Obb{};
  for (int cy = y0; cy < y1; ++cy) {
    for (int cx = x0; cx < x1; ++cx) {
      const Rect rect = tile_rect(cx, cy, grid.cell_size, grid.image_width, grid.image_height);
      if (splat.rho >= 0.0f && rect.contains(splat.center)) {
        visit(grid.cell_index(cx, cy));
        continue;
      }
      ++tests;
      const bool hit = boundary == Boundary::kObb ? obb_intersects(obb, rect)
                                                  : ellipse_intersects(footprint, rect);
      if (hit) visit(grid.cell_index(cx, cy));
    }
  }
  return tests;
}

void hierarchical_bin_splats_into(std::span<const ProjectedSplat> splats, const CellGrid& grid,
                                  Boundary boundary, std::size_t threads,
                                  RenderCounters& counters, BinnedSplats& out,
                                  BinningScratch& scratch) {
  out.grid = grid;
  const std::size_t cells = static_cast<std::size_t>(grid.cell_count());
  const int factor = kCoarseCellFactor;
  const long long coarse_edge_ll = static_cast<long long>(grid.cell_size) * factor;
  const int coarse_edge = coarse_edge_ll > std::numeric_limits<int>::max()
                              ? std::numeric_limits<int>::max()
                              : static_cast<int>(coarse_edge_ll);
  const CellGrid coarse = CellGrid::over_image(grid.image_width, grid.image_height, coarse_edge);
  const std::size_t coarse_cells = static_cast<std::size_t>(coarse.cell_count());

  scratch.fine_ranges.resize(splats.size());
  scratch.kinds.resize(splats.size());
  scratch.splat_hits.assign(splats.size(), 0);
  scratch.coarse_counts.assign(coarse_cells, 0);
  std::atomic<std::size_t> tests{0}, multi{0};

  // Coarse pass 1: classify every splat and count its coarse records. The
  // classification (candidate range + kind) is reused by all later passes.
  parallel_for_chunks(0, splats.size(), [&](std::size_t lo, std::size_t hi, std::size_t) {
    std::size_t local_tests = 0;
    for (std::size_t i = lo; i < hi; ++i) {
      const Rect box = splats[i].footprint().aabb();
      const TileRange r = range_of_box(box, grid);
      scratch.fine_ranges[i] = r;
      if (r.empty()) {
        scratch.kinds[i] = kEmptyKind;
        continue;
      }
      const auto count_cell = [&](int cell, bool /*contained*/) {
        std::atomic_ref<std::uint32_t>(scratch.coarse_counts[static_cast<std::size_t>(cell)])
            .fetch_add(1, std::memory_order_relaxed);
      };
      if (is_single_cell_hit(box, r, grid, splats[i].rho)) {
        scratch.kinds[i] = kSingleHit;
        count_cell(coarse.cell_index(r.tx0 / factor, r.ty0 / factor), false);
      } else {
        scratch.kinds[i] = kGeneralKind;
        local_tests += for_each_coarse_cell(splats[i], coarse_range_of(r, factor), coarse,
                                            boundary, count_cell);
      }
    }
    tests.fetch_add(local_tests, std::memory_order_relaxed);
  }, threads);

  // Coarse CSR + scatter (atomic cursors, like the flat pass).
  const std::uint32_t coarse_total =
      csr_offsets_from_counts(scratch.coarse_counts, scratch.coarse_offsets);
  scratch.coarse_ids.resize(coarse_total);
  scratch.coarse_flags.resize(coarse_total);
  std::copy_n(scratch.coarse_offsets.begin(), coarse_cells, scratch.coarse_counts.begin());
  counters.coarse_pairs += coarse_total;

  parallel_for_chunks(0, splats.size(), [&](std::size_t lo, std::size_t hi, std::size_t) {
    for (std::size_t i = lo; i < hi; ++i) {
      if (scratch.kinds[i] == kEmptyKind) continue;
      const auto scatter_cell = [&](int cell, bool contained) {
        const std::uint32_t slot =
            std::atomic_ref<std::uint32_t>(scratch.coarse_counts[static_cast<std::size_t>(cell)])
                .fetch_add(1, std::memory_order_relaxed);
        scratch.coarse_ids[slot] = static_cast<std::uint32_t>(i);
        scratch.coarse_flags[slot] = contained ? 1 : 0;
      };
      const TileRange& r = scratch.fine_ranges[i];
      if (scratch.kinds[i] == kSingleHit) {
        scatter_cell(coarse.cell_index(r.tx0 / factor, r.ty0 / factor), false);
      } else {
        for_each_coarse_cell(splats[i], coarse_range_of(r, factor), coarse, boundary,
                             scatter_cell);
      }
    }
  }, threads);

  // Fine pass 1: expand each non-empty coarse cell's records into per-fine-
  // cell counts. Parallel over coarse cells — every fine cell belongs to
  // exactly one coarse cell, so the fine count array needs no atomics; only
  // the per-splat hit accumulator is shared (a splat spans coarse cells).
  std::vector<std::uint32_t>& fine_counts = scratch.cell_counts;
  fine_counts.assign(cells, 0);

  const auto fine_window = [&](std::size_t g, int& fx0, int& fy0, int& fx1, int& fy1) {
    const int gx = static_cast<int>(g) % coarse.cells_x;
    const int gy = static_cast<int>(g) / coarse.cells_x;
    fx0 = gx * factor;
    fy0 = gy * factor;
    fx1 = std::min(grid.cells_x, fx0 + factor);
    fy1 = std::min(grid.cells_y, fy0 + factor);
  };

  parallel_for_chunks(0, coarse_cells, [&](std::size_t lo, std::size_t hi, std::size_t) {
    std::size_t local_tests = 0;
    for (std::size_t g = lo; g < hi; ++g) {
      int fx0, fy0, fx1, fy1;
      fine_window(g, fx0, fy0, fx1, fy1);
      for (std::uint32_t e = scratch.coarse_offsets[g]; e < scratch.coarse_offsets[g + 1]; ++e) {
        const std::uint32_t i = scratch.coarse_ids[e];
        const TileRange& r = scratch.fine_ranges[i];
        std::uint32_t hits = 0;
        if (scratch.kinds[i] == kSingleHit) {
          ++fine_counts[static_cast<std::size_t>(grid.cell_index(r.tx0, r.ty0))];
          hits = 1;
        } else {
          local_tests += expand_record(splats[i], r, scratch.coarse_flags[e] != 0, fx0, fy0,
                                       fx1, fy1, grid, boundary, [&](int cell) {
                                         ++fine_counts[static_cast<std::size_t>(cell)];
                                         ++hits;
                                       });
        }
        if (hits != 0) {
          std::atomic_ref<std::uint32_t>(scratch.splat_hits[i])
              .fetch_add(hits, std::memory_order_relaxed);
        }
      }
    }
    tests.fetch_add(local_tests, std::memory_order_relaxed);
  }, threads);

  // Fine CSR + scatter: cursors again owned per coarse cell, no atomics.
  const std::uint32_t total = csr_offsets_from_counts(fine_counts, out.offsets);
  out.splat_ids.resize(total);
  std::copy_n(out.offsets.begin(), cells, fine_counts.begin());

  parallel_for_chunks(0, coarse_cells, [&](std::size_t lo, std::size_t hi, std::size_t) {
    for (std::size_t g = lo; g < hi; ++g) {
      int fx0, fy0, fx1, fy1;
      fine_window(g, fx0, fy0, fx1, fy1);
      for (std::uint32_t e = scratch.coarse_offsets[g]; e < scratch.coarse_offsets[g + 1]; ++e) {
        const std::uint32_t i = scratch.coarse_ids[e];
        const TileRange& r = scratch.fine_ranges[i];
        const auto scatter = [&](int cell) {
          out.splat_ids[fine_counts[static_cast<std::size_t>(cell)]++] = i;
        };
        if (scratch.kinds[i] == kSingleHit) {
          scatter(grid.cell_index(r.tx0, r.ty0));
        } else {
          expand_record(splats[i], r, scratch.coarse_flags[e] != 0, fx0, fy0, fx1, fy1, grid,
                        boundary, scatter);
        }
      }
    }
  }, threads);

  // Counter reduction: pairs come from the CSR total, multi-tile splats
  // from the per-splat hit accumulator (hits arrived from several coarse
  // cells, so they could not be folded into one pass).
  parallel_for_chunks(0, splats.size(), [&](std::size_t lo, std::size_t hi, std::size_t) {
    std::size_t local_multi = 0;
    for (std::size_t i = lo; i < hi; ++i) {
      if (scratch.splat_hits[i] >= 2) ++local_multi;
    }
    multi.fetch_add(local_multi, std::memory_order_relaxed);
  }, threads);

  counters.boundary_tests += tests.load();
  counters.tile_pairs += total;
  counters.splats_multi_tile += multi.load();
}

void verify_bin_splats_into(std::span<const ProjectedSplat> splats, const CellGrid& grid,
                            Boundary boundary, std::size_t threads, RenderCounters& counters,
                            BinnedSplats& out, BinningScratch& scratch) {
  hierarchical_bin_splats_into(splats, grid, boundary, threads, counters, out, scratch);

  // Flat reference run. Its accounting is discarded so kVerify reports the
  // hierarchical pass's counters exactly.
  RenderCounters reference_counters;
  flat_bin_splats_into(splats, grid, boundary, threads, reference_counters, scratch.reference,
                       scratch);

  if (out.offsets != scratch.reference.offsets) {
    throw BinningError("verify: hierarchical CSR offsets differ from flat binning");
  }

  // Canonical per-cell (depth, index) sort of both id arrays, then a
  // bit-identity compare. The packed key is a total order even for
  // adversarial NaN depths (bit-pattern comparison); the id tiebreak keeps
  // the comparator strict should two splats collide on (depth, index).
  scratch.sorted_a = out.splat_ids;
  scratch.sorted_b = scratch.reference.splat_ids;
  const auto canonical_less = [&](std::uint32_t a, std::uint32_t b) {
    const std::uint64_t ka = pack_depth_index_key(splats[a].depth, splats[a].index);
    const std::uint64_t kb = pack_depth_index_key(splats[b].depth, splats[b].index);
    return ka != kb ? ka < kb : a < b;
  };
  const std::size_t cells = static_cast<std::size_t>(grid.cell_count());
  parallel_for_chunks(0, cells, [&](std::size_t lo, std::size_t hi, std::size_t) {
    for (std::size_t c = lo; c < hi; ++c) {
      const std::size_t b = out.offsets[c], e = out.offsets[c + 1];
      std::sort(scratch.sorted_a.begin() + b, scratch.sorted_a.begin() + e, canonical_less);
      std::sort(scratch.sorted_b.begin() + b, scratch.sorted_b.begin() + e, canonical_less);
    }
  }, threads);

  if (scratch.sorted_a != scratch.sorted_b) {
    for (std::size_t c = 0; c < cells; ++c) {
      for (std::size_t e = out.offsets[c]; e < out.offsets[c + 1]; ++e) {
        if (scratch.sorted_a[e] != scratch.sorted_b[e]) {
          throw BinningError("verify: cell " + std::to_string(c) +
                             " differs from flat binning (hierarchical id " +
                             std::to_string(scratch.sorted_a[e]) + " vs flat id " +
                             std::to_string(scratch.sorted_b[e]) + ")");
        }
      }
    }
  }
}

}  // namespace

CellGrid CellGrid::over_image(int image_width, int image_height, int cell_size) {
  if (image_width <= 0 || image_height <= 0 || cell_size <= 0) {
    throw std::invalid_argument("CellGrid: non-positive dimensions");
  }
  CellGrid g;
  g.cell_size = cell_size;
  g.image_width = image_width;
  g.image_height = image_height;
  g.cells_x = (image_width + cell_size - 1) / cell_size;
  g.cells_y = (image_height + cell_size - 1) / cell_size;
  if (static_cast<long long>(g.cells_x) * g.cells_y >
      static_cast<long long>(std::numeric_limits<int>::max())) {
    throw BinningError("cell grid " + std::to_string(g.cells_x) + "x" +
                       std::to_string(g.cells_y) + " overflows the int cell-index space");
  }
  return g;
}

std::uint32_t csr_offsets_from_counts(std::span<const std::uint32_t> counts,
                                      std::vector<std::uint32_t>& offsets) {
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint32_t>::max();
  offsets.resize(counts.size() + 1);
  std::uint64_t running = 0;
  for (std::size_t c = 0; c < counts.size(); ++c) {
    offsets[c] = static_cast<std::uint32_t>(running);
    running += counts[c];
    if (running > kMax) {
      throw BinningError("CSR pair count " + std::to_string(running) +
                         " overflows the 32-bit index space (reduce the workload or shrink "
                         "the footprints)");
    }
  }
  offsets[counts.size()] = static_cast<std::uint32_t>(running);
  return static_cast<std::uint32_t>(running);
}

BinningMode resolve_binning_mode(BinningMode mode, const CellGrid& grid) {
  if (mode != BinningMode::kAuto) return mode;
  return grid.cell_count() >= kAutoHierarchicalMinCells ? BinningMode::kHierarchical
                                                        : BinningMode::kFlat;
}

BinnedSplats bin_splats(std::span<const ProjectedSplat> splats, const CellGrid& grid,
                        Boundary boundary, std::size_t threads, RenderCounters& counters,
                        BinningMode mode) {
  BinnedSplats out;
  BinningScratch scratch;
  bin_splats_into(splats, grid, boundary, threads, counters, out, scratch, mode);
  return out;
}

void bin_splats_into(std::span<const ProjectedSplat> splats, const CellGrid& grid,
                     Boundary boundary, std::size_t threads, RenderCounters& counters,
                     BinnedSplats& out, BinningScratch& scratch, BinningMode mode) {
  switch (resolve_binning_mode(mode, grid)) {
    case BinningMode::kFlat:
      flat_bin_splats_into(splats, grid, boundary, threads, counters, out, scratch);
      return;
    case BinningMode::kHierarchical:
      hierarchical_bin_splats_into(splats, grid, boundary, threads, counters, out, scratch);
      return;
    case BinningMode::kVerify:
      verify_bin_splats_into(splats, grid, boundary, threads, counters, out, scratch);
      return;
    case BinningMode::kAuto:
      break;  // resolved above
  }
  throw std::invalid_argument("bin_splats_into: unresolved binning mode");
}

}  // namespace gstg
