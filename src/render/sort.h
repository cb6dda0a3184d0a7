// Tile-wise (or group-wise) depth sorting: orders every cell's splat list
// front-to-back. The per-cell list sizes are the paper's "redundant sorting"
// quantity — a splat in k cells is sorted k times.
#pragma once

#include <span>

#include "common/annotations.h"
#include "render/binning.h"
#include "render/sort_keys.h"
#include "render/types.h"

namespace gstg {

/// Sorts each cell list of `bins` in place by (depth, original index)
/// ascending — the index tiebreak makes the order total and deterministic.
/// Each list's length picks its sort (sort_items, render/sort_keys.h).
/// The unnamed SortAlgo is read by nothing; it stays only so that
/// perfbench/ builds unchanged. `scratch` reuses one SortScratch across
/// frames; pass nullptr for a self-contained call. Accumulates sort_pairs
/// and sort_comparison_volume into `counters`.
GSTG_HOT_NOALLOC
void sort_cell_lists(BinnedSplats& bins, std::span<const ProjectedSplat> splats,
                     std::size_t threads, RenderCounters& counters,
                     SortAlgo = SortAlgo::kAuto, SortScratch* scratch = nullptr);

}  // namespace gstg
