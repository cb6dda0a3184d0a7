#include "render/sort_keys.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>

namespace gstg {

std::uint32_t depth_bits(float depth) { return std::bit_cast<std::uint32_t>(depth); }

std::uint64_t pack_depth_index_key(float depth, std::uint32_t index, int index_bits) {
  return (static_cast<std::uint64_t>(depth_bits(depth)) << index_bits) | index;
}

// One LSD pass per 8-bit digit: histogram, exclusive prefix, stable scatter.
void radix_sort_pairs(std::vector<KeyValue>& items, std::vector<KeyValue>& tmp, std::size_t n,
                      int key_bits) {
  if (n <= 1) return;
  if (tmp.size() < n) tmp.resize(n);
  const int passes = radix_pass_count(key_bits);
  for (int pass = 0; pass < passes; ++pass) {
    const int shift = pass * 8;
    std::array<std::size_t, 256> histogram{};
    for (std::size_t k = 0; k < n; ++k) {
      ++histogram[(items[k].key >> shift) & 0xffu];
    }
    std::size_t running = 0;
    for (std::size_t d = 0; d < 256; ++d) {
      const std::size_t count = histogram[d];
      histogram[d] = running;
      running += count;
    }
    for (std::size_t k = 0; k < n; ++k) {
      tmp[histogram[(items[k].key >> shift) & 0xffu]++] = items[k];
    }
    items.swap(tmp);  // result of every pass ends in `items`
  }
}

void sort_items(SortWorkerScratch& ws, std::size_t n, int key_bits) {
  if (n >= kRadixSortCutoff) {
    radix_sort_pairs(ws.items, ws.items_tmp, n, key_bits);
    ws.volume += static_cast<double>(n) * radix_pass_count(key_bits);
  } else {
    std::sort(ws.items.begin(), ws.items.begin() + static_cast<std::ptrdiff_t>(n),
              [](const KeyValue& a, const KeyValue& b) { return a.key < b.key; });
    ws.volume += static_cast<double>(n) * std::log2(static_cast<double>(n));
  }
}

}  // namespace gstg
