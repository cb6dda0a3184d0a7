// Packed-key list sorting, shared by both sorting paths: the per-tile sort
// (render/sort.h) and the GS-TG group sort (core/grouping.h). Positive IEEE
// floats order identically to their bit patterns, so a (depth_bits, index)
// 64-bit key sorted ascending reproduces the (depth, original index) order
// exactly. sort_items alone picks radix or comparison sort, by list length.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/annotations.h"

namespace gstg {

/// Read by nothing; it stays only so that perfbench/ builds unchanged.
enum class SortAlgo : std::uint8_t { kAuto };

/// List length from which sort_items uses radix sort instead of comparison
/// sort (below it the radix histogram overhead dominates).
inline constexpr std::size_t kRadixSortCutoff = 64;

/// Monotonic bit pattern of a positive float: d0 < d1 implies
/// bits(d0) < bits(d1). Depths are positive after near-plane culling.
[[nodiscard]] std::uint32_t depth_bits(float depth);

/// Packed key ordering by (depth, index) lexicographically: the depth's
/// monotonic bits shifted above the tiebreak index. Sorting these keys
/// ascending is exactly the comparison the per-cell/per-group sorts
/// perform. `index_bits` (default 32, the full width) compacts the index
/// half so the radix sort can skip impossible high digits — index must be
/// < 2^index_bits and depth_bits + index_bits must fit in 64.
[[nodiscard]] std::uint64_t pack_depth_index_key(float depth, std::uint32_t index,
                                                int index_bits = 32);

/// Number of 8-bit LSD passes needed to cover the low `key_bits` bits.
[[nodiscard]] constexpr int radix_pass_count(int key_bits) { return (key_bits + 7) / 8; }

/// Width of a compacted (depth, index) key whose largest index is
/// `max_index`: the full 32 depth bits plus just enough index bits. The
/// sorts compute this once per call so the radix path skips passes that
/// can only see zero digits.
[[nodiscard]] constexpr int depth_index_key_bits(std::uint32_t max_index) {
  const int index_bits = std::bit_width(max_index);
  return 32 + (index_bits < 1 ? 1 : index_bits);
}

/// A sort record: 64-bit key plus a 64-bit payload that rides along
/// (the splat id; the GS-TG group sort adds the entry's position, which
/// carries its tile bitmask).
struct KeyValue {
  std::uint64_t key = 0;
  std::uint64_t value = 0;
};

/// Stable LSD radix sort of items[0..n) by key ascending, 8-bit digits,
/// processing only the low `key_bits` bits (all higher bits must be zero)
/// and permuting the payloads alongside. `tmp` is grown as needed and
/// reused across calls; the result is left in `items`.
GSTG_HOT_NOALLOC
void radix_sort_pairs(std::vector<KeyValue>& items, std::vector<KeyValue>& tmp, std::size_t n,
                      int key_bits);

/// Reusable buffers for one worker's sorting: the key/payload records, the
/// group path's snapshot of its tile bitmasks, and the comparison-volume
/// accumulator merged deterministically after the parallel region.
struct SortWorkerScratch {
  std::vector<std::uint64_t> masks;
  std::vector<KeyValue> items, items_tmp;
  double volume = 0.0;
  std::size_t pairs = 0;
};

/// Sorts ws.items[0..n) by key ascending (keys unique, n >= 2; shorter
/// lists need no sort and add no volume): radix sort over the low
/// `key_bits` bits when n >= kRadixSortCutoff, comparison sort below. Adds
/// the list's sort_comparison_volume to ws.volume: n * passes for radix,
/// n * log2 n for comparison. The one place that chooses a sort.
GSTG_HOT_NOALLOC
void sort_items(SortWorkerScratch& ws, std::size_t n, int key_bits);

/// Per-frame sorting scratch: one slot per parallel worker, sized from
/// planned_worker_count so worker indices can never alias. Reused across
/// frames by the persistent renderer (zero steady-state allocations).
struct SortScratch {
  std::vector<SortWorkerScratch> workers;

  /// Ensures `worker_count` slots exist and zeroes their accumulators.
  void prepare(std::size_t worker_count) {
    if (workers.size() < worker_count) workers.resize(worker_count);
    for (SortWorkerScratch& w : workers) {
      w.volume = 0.0;
      w.pairs = 0;
    }
  }
};

}  // namespace gstg
