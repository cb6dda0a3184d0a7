#include "render/binning.h"

#include <atomic>
#include <limits>
#include <stdexcept>

#include "common/parallel.h"

namespace gstg {

// Pass 1 is the only geometry: each worker runs for_each_hit_cell once
// over its contiguous chunk of splats, appending every hit's cell id to its
// own record list and counting it per (worker, cell) — no atomics, each
// test counted once. The cell totals give the CSR offsets; the
// per-(worker, cell) counts become cursors laid out worker by worker inside
// each cell. Pass 2 replays the records into the CSR under the same
// chunking, so every cell lists its splats in ascending splat order
// whatever the thread count.
void bin_splats_into(std::span<const ProjectedSplat> splats, const CellGrid& grid,
                     Boundary boundary, std::size_t threads, RenderCounters& counters,
                     BinnedSplats& out, BinningScratch& scratch, BinningMode) {
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
        throw BinningError("recorded more than 2^32 (splat, cell) pairs");
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

BinnedSplats bin_splats(std::span<const ProjectedSplat> splats, const CellGrid& grid,
                        Boundary boundary, std::size_t threads, RenderCounters& counters,
                        BinningMode) {
  BinnedSplats out;
  BinningScratch scratch;
  bin_splats_into(splats, grid, boundary, threads, counters, out, scratch);
  return out;
}

}  // namespace gstg
