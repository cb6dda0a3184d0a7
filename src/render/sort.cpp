#include "render/sort.h"

#include <algorithm>

#include "common/parallel.h"

namespace gstg {

void sort_cell_lists(BinnedSplats& bins, std::span<const ProjectedSplat> splats,
                     std::size_t threads, RenderCounters& counters, SortAlgo,
                     SortScratch* scratch) {
  const std::size_t cells = static_cast<std::size_t>(bins.grid.cell_count());

  // Per-worker accumulators sized from the exact worker count, so a worker
  // index can never alias another slot (doubles must merge in a fixed order
  // for determinism; the integer totals ride along in the same slots).
  const std::size_t workers = planned_worker_count(cells, threads);
  SortScratch local_scratch;
  SortScratch& s = scratch != nullptr ? *scratch : local_scratch;
  s.prepare(workers);

  // Compact the key's index half to its true width so the radix path runs
  // the minimum number of passes (depth always needs its full 32 bits).
  std::uint32_t max_index = 0;
  for (const ProjectedSplat& splat : splats) max_index = std::max(max_index, splat.index);
  const int key_bits = depth_index_key_bits(max_index);
  const int index_bits = key_bits - 32;

  parallel_for_chunks(0, cells, [&](std::size_t lo, std::size_t hi, std::size_t worker) {
    SortWorkerScratch& ws = s.workers[worker];
    for (std::size_t c = lo; c < hi; ++c) {
      const std::uint32_t begin = bins.offsets[c];
      const std::uint32_t end = bins.offsets[c + 1];
      const std::size_t n = end - begin;
      ws.pairs += n;
      if (n <= 1) continue;

      // Packed (depth_bits, index) keys order by (depth, index); the id
      // payload rides along in the value half.
      if (ws.items.size() < n) ws.items.resize(n);
      for (std::size_t k = 0; k < n; ++k) {
        const std::uint32_t id = bins.splat_ids[begin + k];
        ws.items[k] = {pack_depth_index_key(splats[id].depth, splats[id].index, index_bits),
                       id};
      }
      sort_items(ws, n, key_bits);
      for (std::size_t k = 0; k < n; ++k) {
        bins.splat_ids[begin + k] = static_cast<std::uint32_t>(ws.items[k].value);
      }
    }
  }, threads);

  for (std::size_t w = 0; w < workers; ++w) {
    counters.sort_comparison_volume += s.workers[w].volume;
    counters.sort_pairs += s.workers[w].pairs;
  }
}

}  // namespace gstg
