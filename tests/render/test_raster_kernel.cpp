// Exact tile kernel vs a per-pixel reference, on every compiled backend.
//
// The reference below is the straightforward form of the blending loop: for
// each pixel, walk the list in order with the in-range guard, std::exp, the
// alpha clamp and threshold, front-to-back blending and the transmittance
// early exit. The kernel skips rows and column blocks outside a per-splat
// window, keeps exited pixels in place behind a lane mask and evaluates the
// exponential in lanes; none of that may change a framebuffer byte or a
// TileRasterStats field. The corpus is built to break the window's proof:
// needle conics, indefinite and non-finite conics, non-finite and far-away
// centres, opacities that are 0, NaN, negative or above 1, and opaque stacks
// that drive most pixels through the early exit.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.h"
#include "render/framebuffer.h"
#include "render/rasterize.h"
#include "render/simd_kernels.h"
#include "render/types.h"

namespace gstg {
namespace {

constexpr float kNan = std::numeric_limits<float>::quiet_NaN();
constexpr float kInf = std::numeric_limits<float>::infinity();

/// The blending loop one pixel at a time, in list order.
TileRasterStats reference_tile(const std::vector<ProjectedSplat>& splats,
                               const std::vector<std::uint32_t>& order, int x0, int y0, int x1,
                               int y1, Framebuffer& fb) {
  TileRasterStats stats;
  stats.pixels = static_cast<std::size_t>(x1 - x0) * static_cast<std::size_t>(y1 - y0);
  stats.pixel_list_work = order.size() * stats.pixels;
  for (int y = y0; y < y1; ++y) {
    for (int x = x0; x < x1; ++x) {
      const float px = static_cast<float>(x) + 0.5f;
      const float py = static_cast<float>(y) + 0.5f;
      float t = 1.0f;
      Vec3 c{0.0f, 0.0f, 0.0f};
      for (const std::uint32_t id : order) {
        const ProjectedSplat& s = splats[id];
        const float q_max = 2.0f * std::log(255.0f * s.opacity);
        const float dx = px - s.center.x;
        const float dy = py - s.center.y;
        const float q = ((s.conic.xx * dx) * dx + ((2.0f * s.conic.xy) * dx) * dy) +
                        (s.conic.yy * dy) * dy;
        if (q > q_max || q < 0.0f) continue;
        ++stats.alpha_computations;
        const float alpha = std::min(kAlphaClamp, s.opacity * std::exp(-0.5f * q));
        if (alpha < kAlphaThreshold) continue;
        ++stats.blend_ops;
        const float w = alpha * t;
        c.x = c.x + s.rgb.x * w;
        c.y = c.y + s.rgb.y * w;
        c.z = c.z + s.rgb.z * w;
        t = t * (1.0f - alpha);
        if (t < kTransmittanceThreshold) {
          ++stats.early_exit_pixels;
          break;
        }
      }
      fb.at(x, y) = c;
    }
  }
  return stats;
}

ProjectedSplat make_splat(Vec2 center, Sym2 conic, float opacity, Vec3 rgb) {
  ProjectedSplat s;
  s.center = center;
  s.conic = conic;  // the kernels read only the conic
  s.depth = 1.0f;
  s.opacity = opacity;
  s.rgb = rgb;
  s.rho = kThreeSigmaRho;
  return s;
}

/// Conic of a Gaussian with standard deviations (major, minor) rotated by
/// `angle`: R diag(1/major^2, 1/minor^2) R^T.
Sym2 rotated_conic(float major, float minor, float angle) {
  const float c = std::cos(angle);
  const float s = std::sin(angle);
  const float a = 1.0f / (major * major);
  const float b = 1.0f / (minor * minor);
  return Sym2{c * c * a + s * s * b, c * s * (a - b), s * s * a + c * c * b};
}

/// Random footprints around the tile plus the adversarial cases.
std::vector<ProjectedSplat> corpus(int x0, int y0, int x1, int y1, std::uint64_t seed) {
  Rng rng(seed);
  const float cx = 0.5f * static_cast<float>(x0 + x1);
  const float cy = 0.5f * static_cast<float>(y0 + y1);
  const float span = static_cast<float>(std::max(x1 - x0, y1 - y0));
  const auto colour = [&rng] {
    return Vec3{rng.uniform(), rng.uniform(), rng.uniform()};
  };
  const auto near = [&](float spread) {
    return Vec2{cx + rng.uniform(-spread, spread), cy + rng.uniform(-spread, spread)};
  };

  std::vector<ProjectedSplat> v;
  for (int i = 0; i < 48; ++i) {
    v.push_back(make_splat(near(span), rotated_conic(rng.uniform(0.3f, 12.0f),
                                                     rng.uniform(0.3f, 6.0f),
                                                     rng.uniform(0.0f, 3.2f)),
                           rng.uniform(0.01f, 1.0f), colour()));
  }
  // Needle conics (condition number > 1e5) along and across the axes.
  for (const float angle : {0.0f, 0.5f, 1.5707964f, 2.2f}) {
    v.push_back(make_splat(near(0.5f * span), rotated_conic(40.0f, 0.05f, angle), 0.9f,
                           colour()));
    v.push_back(make_splat(near(0.5f * span), rotated_conic(400.0f, 0.4f, angle), 0.7f,
                           colour()));
  }
  // Indefinite and degenerate conics (det < 0, det = 0, a or c <= 0).
  v.push_back(make_splat(near(span), Sym2{0.2f, 0.5f, 0.2f}, 0.8f, colour()));
  v.push_back(make_splat(near(span), Sym2{0.1f, 0.1f, 0.1f}, 0.8f, colour()));
  v.push_back(make_splat(near(span), Sym2{-0.1f, 0.0f, 0.3f}, 0.8f, colour()));
  v.push_back(make_splat(near(span), Sym2{0.3f, 0.0f, 0.0f}, 0.8f, colour()));
  // Non-finite conics and centres.
  v.push_back(make_splat(near(span), Sym2{kNan, 0.0f, 0.1f}, 0.8f, colour()));
  v.push_back(make_splat(near(span), Sym2{0.1f, kInf, 0.1f}, 0.8f, colour()));
  v.push_back(make_splat(near(span), Sym2{kInf, 0.0f, kInf}, 0.8f, colour()));
  v.push_back(make_splat({kNan, cy}, Sym2{0.1f, 0.0f, 0.1f}, 0.8f, colour()));
  v.push_back(make_splat({cx, -kInf}, Sym2{0.1f, 0.0f, 0.1f}, 0.8f, colour()));
  // Overflowing and subnormal conic terms; with det > 0 the first makes
  // (xx*dx)*dx = inf and (2xy*dx)*dy = -inf, so q is NaN and passes.
  v.push_back(make_splat(near(span), Sym2{1e37f, -5e36f, 1e37f}, 0.8f, colour()));
  v.push_back(make_splat(near(span), Sym2{1e37f, -1e37f, 1e37f}, 0.8f, colour()));
  v.push_back(make_splat(near(span), Sym2{1e-40f, 1e-42f, 2e-40f}, 0.8f, colour()));
  // q_max < 0 with a q that is not provably finite: a NaN q passes the guard
  // and blends at the clamp, so these splats must not be skipped.
  v.push_back(make_splat(near(span), Sym2{kNan, 0.0f, 0.1f}, 0.002f, colour()));
  v.push_back(make_splat(near(span), Sym2{3e38f, -3e38f, 3e38f}, 0.0f, colour()));
  v.push_back(make_splat({kInf, cy}, Sym2{0.1f, 0.0f, 0.1f}, 0.001f, colour()));
  // Opacities: 0, NaN, negative, above 1 (exp leaves [-16, 0]), below 1/255.
  for (const float opacity : {0.0f, kNan, -0.5f, 1.5f, 3.0e6f, 0.002f}) {
    v.push_back(make_splat(near(0.5f * span), rotated_conic(4.0f, 2.0f, 0.3f), opacity,
                           colour()));
  }
  // Centres at or past 2^20 and far outside the tile.
  v.push_back(make_splat({1048576.0f, cy}, rotated_conic(5.0f, 5.0f, 0.0f), 0.9f, colour()));
  v.push_back(make_splat({3.0e7f, -3.0e7f}, rotated_conic(1.0e7f, 1.0e7f, 0.0f), 0.9f,
                         colour()));
  v.push_back(make_splat({cx - 500.0f, cy}, rotated_conic(100.0f, 3.0f, 0.0f), 0.9f, colour()));
  v.push_back(make_splat({cx, cy + 300.0f}, rotated_conic(2.0f, 2.0f, 0.0f), 0.9f, colour()));
  // Opaque stack: most pixels reach the transmittance exit part-way down.
  for (int i = 0; i < 12; ++i) {
    v.push_back(make_splat(near(0.25f * span), rotated_conic(span, 0.8f * span, 0.2f * i),
                           0.99f, colour()));
  }

  // Interleave deterministically so the stack is not all at the end.
  std::vector<ProjectedSplat> shuffled;
  std::vector<std::uint32_t> idx(v.size());
  for (std::uint32_t i = 0; i < idx.size(); ++i) idx[i] = i;
  for (std::size_t i = idx.size(); i > 1; --i) {
    const auto j = static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(i) - 1));
    std::swap(idx[i - 1], idx[j]);
  }
  // First in the list, before any pixel exits: negative definite and centred
  // on a pixel, where q is exactly 0 and passes the guard.
  shuffled.push_back(make_splat({static_cast<float>(x0) + 2.5f, static_cast<float>(y0) + 1.5f},
                                Sym2{-0.3f, 0.0f, -0.3f}, 0.6f, colour()));
  for (const std::uint32_t i : idx) shuffled.push_back(v[i]);
  for (std::uint32_t i = 0; i < shuffled.size(); ++i) shuffled[i].index = i;
  return shuffled;
}

/// Paints every pixel with a sentinel, so a pixel the kernel fails to flush
/// shows up in the byte comparison.
void paint(Framebuffer& fb) {
  std::fill(fb.pixels().begin(), fb.pixels().end(), Vec3{-1.0f, -1.0f, -1.0f});
}

struct TileShape {
  int x0, y0, w, h;
};

// Square tiles of every size the pipelines use, clipped edge tiles whose
// width and height are not lane multiples, and one tile wider than 64 px.
const TileShape kShapes[] = {
    {8, 8, 8, 8},     {16, 32, 16, 16}, {32, 0, 32, 32}, {0, 64, 64, 64},
    {123, 101, 5, 3}, {112, 121, 16, 7}, {3, 5, 13, 21},  {40, 20, 80, 72},
};

/// Runs every compiled backend's exact kernel over the list in order, with a
/// fresh scratch and with one warmed by a larger tile, and expects the
/// reference's framebuffer bytes and all five statistics. Returns the
/// reference statistics.
TileRasterStats expect_matches_reference(const std::vector<ProjectedSplat>& splats, int x0,
                                         int y0, int x1, int y1) {
  std::vector<std::uint32_t> order(splats.size());
  for (std::uint32_t i = 0; i < order.size(); ++i) order[i] = i;
  Framebuffer ref_fb(128, 136);
  Framebuffer fb(128, 136);
  paint(ref_fb);
  const TileRasterStats want = reference_tile(splats, order, x0, y0, x1, y1, ref_fb);

  for (const SimdBackend backend : available_simd_backends()) {
    const SimdKernels& k = simd_kernels(backend);
    TileRasterScratch fresh;
    TileRasterScratch warm;
    k.rasterize_tile(splats, order, 0, 0, 96, 96, fb, warm, ExpMode::kExact);
    for (TileRasterScratch* sc : {&fresh, &warm}) {
      const std::string where = std::string(to_string(backend)) + " tile " +
                                std::to_string(x1 - x0) + "x" + std::to_string(y1 - y0) +
                                (sc == &fresh ? " fresh" : " warm");
      paint(fb);
      const TileRasterStats got =
          k.rasterize_tile(splats, order, x0, y0, x1, y1, fb, *sc, ExpMode::kExact);
      EXPECT_EQ(got.alpha_computations, want.alpha_computations) << where;
      EXPECT_EQ(got.blend_ops, want.blend_ops) << where;
      EXPECT_EQ(got.early_exit_pixels, want.early_exit_pixels) << where;
      EXPECT_EQ(got.pixel_list_work, want.pixel_list_work) << where;
      EXPECT_EQ(got.pixels, want.pixels) << where;
      EXPECT_EQ(std::memcmp(fb.pixels().data(), ref_fb.pixels().data(),
                            fb.pixels().size() * sizeof(Vec3)),
                0)
          << where;
    }
  }
  return want;
}

TEST(RasterKernel, ExactKernelMatchesPerPixelReferenceOnEveryBackend) {
  std::uint64_t seed = 1;
  for (const TileShape& t : kShapes) {
    const int x1 = t.x0 + t.w;
    const int y1 = t.y0 + t.h;
    const TileRasterStats want =
        expect_matches_reference(corpus(t.x0, t.y0, x1, y1, seed++), t.x0, t.y0, x1, y1);
    EXPECT_GT(want.early_exit_pixels, 0u) << "corpus must drive the early exit";
    EXPECT_GT(want.blend_ops, 0u);
  }
}

TEST(RasterKernel, IllConditionedNeedlesMatchReference) {
  // Thin footprints at every angle, where the float q strays furthest from
  // the exact quad (relative error up to ~4u times the condition number).
  Rng rng(7);
  std::vector<ProjectedSplat> splats;
  for (int i = 0; i < 600; ++i) {
    const float major = rng.uniform(2.0f, 60.0f);
    const float minor = major * rng.uniform(1e-4f, 3e-3f);
    splats.push_back(make_splat({rng.uniform(-24.0f, 40.0f), rng.uniform(-24.0f, 40.0f)},
                                rotated_conic(major, minor, rng.uniform(0.0f, 3.2f)),
                                rng.uniform(0.01f, 0.6f), {1.0f, 0.5f, 0.25f}));
  }
  expect_matches_reference(splats, 0, 0, 16, 16);
}

TEST(RasterKernel, FullyRejectedListStillFlushesTheTile) {
  // Every splat of this list is proven unable to reach the tile (far away,
  // q_max < 0), so the window skips them all; the tile is still flushed.
  std::vector<ProjectedSplat> splats{
      make_splat({-400.0f, 8.0f}, rotated_conic(2.0f, 2.0f, 0.0f), 0.9f, {1, 1, 1}),
      make_splat({8.0f, 8.0f}, rotated_conic(4.0f, 4.0f, 0.0f), 0.001f, {1, 1, 1}),
      make_splat({8.0f, 8.0f}, rotated_conic(4.0f, 4.0f, 0.0f), 0.0f, {1, 1, 1})};
  const std::vector<std::uint32_t> order{0, 1, 2};
  for (const SimdBackend backend : available_simd_backends()) {
    Framebuffer fb(16, 16);
    paint(fb);
    TileRasterScratch sc;
    const TileRasterStats st =
        simd_kernels(backend).rasterize_tile(splats, order, 0, 0, 16, 16, fb, sc, ExpMode::kExact);
    EXPECT_EQ(st.alpha_computations, 0u) << to_string(backend);
    EXPECT_EQ(st.pixel_list_work, 3u * 256u);
    for (const Vec3& p : fb.pixels()) EXPECT_EQ(p, (Vec3{0.0f, 0.0f, 0.0f}));
  }
}

}  // namespace
}  // namespace gstg
