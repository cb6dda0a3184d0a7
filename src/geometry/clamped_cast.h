// Shared clamped float→int conversions for footprint/grid math.
//
// static_cast<int> from a float outside int's representable range is
// undefined behaviour, and degenerate conics (huge rho, NaN coordinates)
// routinely produce AABB coordinates far outside it. Every float→int
// conversion in src/geometry and src/render must either go through these
// helpers or clamp in the expression (std::clamp before the cast); lint
// rule R2 (tools/lint/gstg_lint.py) enforces this at analysis time.
#pragma once

#include <algorithm>

namespace gstg {

/// static_cast<int>(v) clamped into [lo, hi] in the float domain, so the
/// cast itself is always in range. NaN fails every comparison and lands on
/// `lo` (the safe end for grid math: the empty/zero cell).
inline int clamped_float_to_int(float v, int lo, int hi) {
  const float flo = static_cast<float>(lo);
  const float fhi = static_cast<float>(hi);
  if (!(v > flo)) return lo;
  if (v >= fhi) return hi;
  return static_cast<int>(v);
}

/// floor(v / cell_size) + bias, clamped into [0, cells], for bias 0 or 1.
/// The float→int cast is UB outside int's range and a degenerate conic
/// (huge rho) produces AABB coordinates far outside it, so the clamp happens
/// before the cast. No libm: truncation is floor on t >= 0, and every t < 0
/// (NaN and -inf included) lands on 0 either way — floor(t) <= -1 there, so
/// floor(t) + bias <= 0. The bias is added in int, after the clamp.
inline int clamped_cell_floor(float v, float cell_size, int cells, int bias) {
  const float t = v / cell_size;
  if (!(t >= 0.0f)) return 0;
  if (t >= static_cast<float>(cells)) return cells;
  return std::min(static_cast<int>(t) + bias, cells);
}

}  // namespace gstg
