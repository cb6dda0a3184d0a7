// Packed-key sorting (render/sort_keys.h): key monotonicity, radix
// stability, and both sides of the radix cutoff against an order written
// out here, through the per-tile and the per-group sort.
#include "render/sort_keys.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <random>
#include <vector>

#include "core/grouping.h"
#include "render/binning.h"
#include "render/sort.h"
#include "render/types.h"

namespace gstg {
namespace {

TEST(SortKeys, PackedKeyOrdersByDepthThenIndex) {
  // Positive floats in increasing order must produce increasing keys.
  const float depths[] = {1e-6f, 0.5f, 1.0f, 1.5f, 2.0f, 100.0f, 1e6f};
  for (std::size_t i = 0; i + 1 < std::size(depths); ++i) {
    EXPECT_LT(pack_depth_index_key(depths[i], 0), pack_depth_index_key(depths[i + 1], 0))
        << depths[i] << " vs " << depths[i + 1];
  }
  // Equal depth: the index tiebreak decides.
  EXPECT_LT(pack_depth_index_key(2.5f, 3), pack_depth_index_key(2.5f, 4));
  // Depth dominates the index.
  EXPECT_LT(pack_depth_index_key(1.0f, 0xffffffffu), pack_depth_index_key(1.0000001f, 0));
  // The index fills the low 32 bits at the default width.
  EXPECT_EQ(pack_depth_index_key(3.25f, 12345u) & 0xffffffffu, 12345u);
}

TEST(SortKeys, RadixSortKeysMatchesStdSort) {
  std::mt19937 gen(7);
  std::uniform_int_distribution<std::uint64_t> dist;
  for (const std::size_t n : {0ul, 1ul, 2ul, 63ul, 64ul, 1000ul}) {
    std::vector<KeyValue> items(n);
    for (std::size_t i = 0; i < n; ++i) items[i] = {dist(gen), i};
    std::vector<KeyValue> expected = items;
    std::stable_sort(expected.begin(), expected.end(),
                     [](const KeyValue& a, const KeyValue& b) { return a.key < b.key; });

    std::vector<KeyValue> tmp;
    radix_sort_pairs(items, tmp, n, 64);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(items[i].key, expected[i].key) << "n=" << n << " at " << i;
      ASSERT_EQ(items[i].value, expected[i].value) << "n=" << n << " at " << i;
    }
  }
}

TEST(SortKeys, RadixSortPairsIsStableOnDuplicateKeys) {
  // Many duplicate keys; the payload records the original position, so
  // stability means payloads stay increasing within each key.
  std::mt19937 gen(11);
  std::uniform_int_distribution<std::uint64_t> key_dist(0, 15);  // heavy ties
  const std::size_t n = 4096;
  std::vector<KeyValue> items(n);
  for (std::size_t i = 0; i < n; ++i) items[i] = {key_dist(gen), i};

  std::vector<KeyValue> tmp;
  radix_sort_pairs(items, tmp, n, 8);

  for (std::size_t i = 0; i + 1 < n; ++i) {
    ASSERT_LE(items[i].key, items[i + 1].key);
    if (items[i].key == items[i + 1].key) {
      ASSERT_LT(items[i].value, items[i + 1].value) << "instability at " << i;
    }
  }
}

TEST(SortKeys, RadixSortRespectsKeyBitsParameter) {
  // Only the low 16 bits are populated; 2 passes must fully sort.
  std::mt19937 gen(13);
  std::uniform_int_distribution<std::uint64_t> dist(0, 0xffff);
  std::vector<KeyValue> items(777);
  for (std::size_t i = 0; i < items.size(); ++i) items[i] = {dist(gen), i};
  std::vector<KeyValue> expected = items;
  std::stable_sort(expected.begin(), expected.end(),
                   [](const KeyValue& a, const KeyValue& b) { return a.key < b.key; });

  std::vector<KeyValue> tmp;
  radix_sort_pairs(items, tmp, items.size(), 16);
  for (std::size_t i = 0; i < items.size(); ++i) {
    ASSERT_EQ(items[i].key, expected[i].key) << "at " << i;
    ASSERT_EQ(items[i].value, expected[i].value) << "at " << i;
  }
  EXPECT_EQ(radix_pass_count(16), 2);
}

// Builds a single-cell binning over splats with deliberate depth ties.
BinnedSplats one_cell_bins(std::size_t n) {
  BinnedSplats bins;
  bins.grid = CellGrid::over_image(16, 16, 16);
  bins.offsets = {0, static_cast<std::uint32_t>(n)};
  bins.splat_ids.resize(n);
  for (std::size_t i = 0; i < n; ++i) bins.splat_ids[i] = static_cast<std::uint32_t>(i);
  return bins;
}

std::vector<ProjectedSplat> tied_depth_splats(std::size_t n, unsigned seed) {
  // Depths drawn from a tiny set so most entries tie and the index tiebreak
  // decides; indices are shuffled relative to ids to make the tiebreak
  // observable.
  std::mt19937 gen(seed);
  std::uniform_int_distribution<int> depth_pick(1, 4);
  std::vector<std::uint32_t> indices(n);
  for (std::size_t i = 0; i < n; ++i) indices[i] = static_cast<std::uint32_t>(i);
  std::shuffle(indices.begin(), indices.end(), gen);

  std::vector<ProjectedSplat> splats(n);
  for (std::size_t i = 0; i < n; ++i) {
    splats[i].depth = static_cast<float>(depth_pick(gen));
    splats[i].index = indices[i];
  }
  return splats;
}

// The (depth, index) order written out: what both sort branches must give.
std::vector<std::uint32_t> reference_order(std::vector<std::uint32_t> ids,
                                           const std::vector<ProjectedSplat>& splats) {
  std::stable_sort(ids.begin(), ids.end(), [&](std::uint32_t a, std::uint32_t b) {
    const ProjectedSplat& sa = splats[a];
    const ProjectedSplat& sb = splats[b];
    return sa.depth < sb.depth || (sa.depth == sb.depth && sa.index < sb.index);
  });
  return ids;
}

// Lengths on both sides of the radix cutoff.
constexpr std::size_t kLengths[] = {2, 17, kRadixSortCutoff - 1, kRadixSortCutoff,
                                    kRadixSortCutoff + 1, 300};

TileMask mask_of(std::uint32_t id) { return TileMask{0x9e3779b97f4a7c15ull} * (id + 1); }

// One list of n tied-depth entries in shuffled input order, sorted by
// sort_cell_lists and by sort_groups (with a mask per entry).
struct SortedBothWays {
  std::vector<ProjectedSplat> splats;
  std::vector<std::uint32_t> input;
  BinnedSplats cells;
  RenderCounters cell_counters;
  BinnedSplats groups;
  std::vector<TileMask> masks;
  RenderCounters group_counters;
};

SortedBothWays sort_both_ways(std::size_t n) {
  SortedBothWays r;
  r.splats = tied_depth_splats(n, 23 + static_cast<unsigned>(n));
  r.input.resize(n);
  for (std::size_t i = 0; i < n; ++i) r.input[i] = static_cast<std::uint32_t>(i);
  std::shuffle(r.input.begin(), r.input.end(), std::mt19937(static_cast<unsigned>(n)));

  r.cells = one_cell_bins(n);
  r.cells.splat_ids = r.input;
  sort_cell_lists(r.cells, r.splats, 1, r.cell_counters);

  r.groups = one_cell_bins(n);
  r.groups.splat_ids = r.input;
  r.masks.resize(n);
  for (std::size_t i = 0; i < n; ++i) r.masks[i] = mask_of(r.input[i]);
  sort_groups(r.groups, r.masks, r.splats, 1, r.group_counters);
  return r;
}

TEST(SortKeys, CellListRadixMatchesComparisonOnDepthTies) {
  // Depth ties everywhere, so the index tiebreak decides most places; both
  // sort branches must give the order written out by reference_order.
  for (const std::size_t n : kLengths) {
    const SortedBothWays r = sort_both_ways(n);
    const std::vector<std::uint32_t> expected = reference_order(r.input, r.splats);
    EXPECT_EQ(r.cells.splat_ids, expected) << "sort_cell_lists, n=" << n;
    EXPECT_EQ(r.groups.splat_ids, expected) << "sort_groups, n=" << n;
    // The group sort must carry each entry's mask along with its id.
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(r.masks[i], mask_of(r.groups.splat_ids[i])) << "n=" << n << " at " << i;
    }
  }
}

TEST(SortKeys, AutoSelectsRadixAboveCutoff) {
  // The branch shows in the accounted volume: n*log2(n) comparisons below
  // the cutoff, n per radix pass from it up.
  for (const std::size_t n : kLengths) {
    const SortedBothWays r = sort_both_ways(n);
    std::uint32_t max_index = 0;
    for (const ProjectedSplat& s : r.splats) max_index = std::max(max_index, s.index);
    const double volume =
        n >= kRadixSortCutoff
            ? static_cast<double>(n) * radix_pass_count(depth_index_key_bits(max_index))
            : static_cast<double>(n) * std::log2(static_cast<double>(n));
    EXPECT_EQ(r.cell_counters.sort_pairs, n);
    EXPECT_DOUBLE_EQ(r.cell_counters.sort_comparison_volume, volume) << "n=" << n;
    EXPECT_EQ(r.group_counters.sort_pairs, n);
    EXPECT_DOUBLE_EQ(r.group_counters.sort_comparison_volume, volume) << "n=" << n;
  }
}

TEST(SortKeys, SortScratchReusePreservesResults) {
  // The same scratch across repeated sorts must not change the outcome.
  const std::size_t n = 300;
  const std::vector<ProjectedSplat> splats = tied_depth_splats(n, 99);
  SortScratch scratch;

  BinnedSplats reference = one_cell_bins(n);
  RenderCounters cr;
  sort_cell_lists(reference, splats, 1, cr);

  for (int round = 0; round < 3; ++round) {
    BinnedSplats bins = one_cell_bins(n);
    RenderCounters c;
    sort_cell_lists(bins, splats, 1, c, SortAlgo::kAuto, &scratch);
    EXPECT_EQ(bins.splat_ids, reference.splat_ids) << "round " << round;
    EXPECT_EQ(c.sort_pairs, cr.sort_pairs);
    EXPECT_DOUBLE_EQ(c.sort_comparison_volume, cr.sort_comparison_volume);
  }
}

}  // namespace
}  // namespace gstg
