// SIMD kernel registry and runtime dispatch: the function-pointer tables,
// CPU-feature gating, the GSTG_SIMD override, and the one-time bit-identity
// probe that qualifies a backend for kAuto selection.
#include "render/simd_kernels.h"

#include <cmath>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <stdexcept>
#include <vector>

#include "camera/camera.h"
#include "geometry/sym2.h"

namespace gstg {

// Kernel entry points, one namespace per backend TU (simd_kernels.inl).
// The GSTG_SIMD_HAVE_* macros are defined by src/render/CMakeLists.txt for
// the backends actually compiled on this platform.
#define GSTG_DECLARE_KERNELS(ns)                                                             \
  namespace ns {                                                                             \
  TileRasterStats rasterize_tile_kernel(std::span<const ProjectedSplat>,                     \
                                        std::span<const std::uint32_t>, int, int, int, int,  \
                                        Framebuffer&, TileRasterScratch&, ExpMode);          \
  TileRasterStats rasterize_tile_sortless_kernel(std::span<const ProjectedSplat>,            \
                                                 std::span<const std::uint32_t>, int, int,   \
                                                 int, int, Framebuffer&,                     \
                                                 SortlessRasterScratch&, ExpMode);           \
  void preprocess_chunk_kernel(const PreprocessChunkArgs&, std::size_t, std::size_t);        \
  }

GSTG_DECLARE_KERNELS(simd_scalar)
#if defined(GSTG_SIMD_HAVE_SSE4)
GSTG_DECLARE_KERNELS(simd_sse4)
#endif
#if defined(GSTG_SIMD_HAVE_AVX2)
GSTG_DECLARE_KERNELS(simd_avx2)
#endif
#if defined(GSTG_SIMD_HAVE_NEON)
GSTG_DECLARE_KERNELS(simd_neon)
#endif
#undef GSTG_DECLARE_KERNELS

namespace {

bool compiled_in(SimdBackend backend) {
  switch (backend) {
    case SimdBackend::kScalar:
      return true;
    case SimdBackend::kSse4:
#if defined(GSTG_SIMD_HAVE_SSE4)
      return true;
#else
      return false;
#endif
    case SimdBackend::kAvx2:
#if defined(GSTG_SIMD_HAVE_AVX2)
      return true;
#else
      return false;
#endif
    case SimdBackend::kNeon:
#if defined(GSTG_SIMD_HAVE_NEON)
      return true;
#else
      return false;
#endif
    case SimdBackend::kAuto:
      return false;
  }
  return false;
}

/// A probe splat with a consistent (cov, conic) pair.
ProjectedSplat probe_splat(Vec2 center, float sigma, float depth, float opacity, Vec3 rgb,
                           std::uint32_t index) {
  ProjectedSplat s;
  s.center = center;
  s.cov = Sym2{sigma * sigma, 0.3f * sigma, sigma * sigma * 1.4f};
  s.conic = inverse(s.cov);
  s.depth = depth;
  s.opacity = opacity;
  s.rgb = rgb;
  s.rho = kThreeSigmaRho;
  s.index = index;
  return s;
}

/// Runs one 16x16 exact-mode tile through `k` and the scalar kernel and
/// compares framebuffers (bitwise) and statistics. The splat set exercises
/// every kernel path: the pixel window, blending, the in-range guard, the
/// alpha threshold, the clamp, and the transmittance early exit.
bool probe_matches_scalar(const SimdKernels& k) {
  std::vector<ProjectedSplat> splats;
  splats.push_back(probe_splat({5.3f, 7.1f}, 2.0f, 1.0f, 0.8f, {0.9f, 0.2f, 0.1f}, 0));
  splats.push_back(probe_splat({12.2f, 3.4f}, 0.8f, 1.5f, 0.99f, {0.1f, 0.8f, 0.3f}, 1));
  splats.push_back(probe_splat({2.0f, 14.0f}, 1.2f, 2.0f, 0.002f, {0.5f, 0.5f, 0.5f}, 2));
  // Opaque stack driving most pixels through the early exit.
  for (std::uint32_t i = 0; i < 8; ++i) {
    splats.push_back(probe_splat({8.0f, 8.0f}, 40.0f, 3.0f + static_cast<float>(i), 0.99f,
                                 {0.3f, 0.3f, 0.9f}, 3 + i));
  }
  std::vector<std::uint32_t> order(splats.size());
  for (std::uint32_t i = 0; i < order.size(); ++i) order[i] = i;

  const SimdKernels& ref = simd_kernels(SimdBackend::kScalar);
  Framebuffer fa(16, 16), fb(16, 16);
  TileRasterScratch sa, sb;
  const TileRasterStats ra =
      ref.rasterize_tile(splats, order, 0, 0, 16, 16, fa, sa, ExpMode::kExact);
  const TileRasterStats rb =
      k.rasterize_tile(splats, order, 0, 0, 16, 16, fb, sb, ExpMode::kExact);

  if (ra.alpha_computations != rb.alpha_computations || ra.blend_ops != rb.blend_ops ||
      ra.early_exit_pixels != rb.early_exit_pixels) {
    return false;
  }
  if (std::memcmp(fa.pixels().data(), fb.pixels().data(),
                  fa.pixels().size() * sizeof(Vec3)) != 0) {
    return false;
  }

  // Sortless probe: the same tile through the order-independent kernel,
  // forward under the scalar reference and REVERSED under the candidate —
  // one comparison covers both the cross-backend bit-identity and the
  // order-independence contract of the sortless pipeline.
  std::vector<std::uint32_t> reversed(order.rbegin(), order.rend());
  Framebuffer fsa(16, 16), fsb(16, 16);
  SortlessRasterScratch ssa, ssb;
  const TileRasterStats sra =
      ref.rasterize_tile_sortless(splats, order, 0, 0, 16, 16, fsa, ssa, ExpMode::kExact);
  const TileRasterStats srb =
      k.rasterize_tile_sortless(splats, reversed, 0, 0, 16, 16, fsb, ssb, ExpMode::kExact);
  if (sra.alpha_computations != srb.alpha_computations || sra.blend_ops != srb.blend_ops ||
      srb.early_exit_pixels != 0) {
    return false;
  }
  if (std::memcmp(fsa.pixels().data(), fsb.pixels().data(),
                  fsa.pixels().size() * sizeof(Vec3)) != 0) {
    return false;
  }

  // Preprocess probe: a procedural cloud spanning the kernel's cull paths
  // (visible, behind camera, outside the guard band, sub-threshold opacity)
  // must project to bit-identical splats under both kernels.
  GaussianCloud cloud(1);
  for (int i = 0; i < 24; ++i) {
    const float fi = static_cast<float>(i);
    const Vec3 pos{0.35f * fi - 4.0f, 0.21f * fi - 2.5f, (i % 5 == 0) ? -2.0f : 4.0f + 0.3f * fi};
    const Vec3 scale{0.08f + 0.01f * fi, 0.05f + 0.02f * fi, 0.06f};
    const Quat rot = from_axis_angle({0.3f, 1.0f, 0.2f}, 0.37f * fi);
    const float opacity = (i % 7 == 0) ? 0.001f : 0.15f + 0.03f * fi;
    cloud.add_solid(pos, scale, rot, opacity, {0.8f, 0.4f, 0.2f});
  }
  const Camera camera = Camera::from_fov(96, 64, 1.1f, look_at({0, 0, -6}, {0, 0, 1}));

  PreprocessChunkArgs args;
  args.cloud = &cloud;
  args.camera = &camera;
  args.cam_pos = camera.position();
  std::vector<ProjectedSplat> slots_a(cloud.size()), slots_b(cloud.size());
  std::vector<std::uint8_t> keep_a(cloud.size(), 0), keep_b(cloud.size(), 0);
  args.slots = slots_a.data();
  args.keep = keep_a.data();
  ref.preprocess_chunk(args, 0, cloud.size());
  args.slots = slots_b.data();
  args.keep = keep_b.data();
  k.preprocess_chunk(args, 0, cloud.size());

  if (keep_a != keep_b) return false;
  for (std::size_t i = 0; i < cloud.size(); ++i) {
    if (!keep_a[i]) continue;
    const ProjectedSplat& a = slots_a[i];
    const ProjectedSplat& b = slots_b[i];
    if (!(a.center == b.center && a.cov == b.cov && a.conic == b.conic && a.depth == b.depth &&
          a.opacity == b.opacity && a.rgb == b.rgb && a.rho == b.rho && a.index == b.index)) {
      return false;
    }
  }
  return true;
}

void warn_unavailable_once(SimdBackend requested) {
  static std::once_flag warned;
  std::call_once(warned, [requested] {
    std::fprintf(stderr,
                 "gstg: SIMD backend '%s' is not available on this build/CPU; "
                 "falling back to scalar\n",
                 to_string(requested));
  });
}

}  // namespace

const std::vector<SimdBackend>& available_simd_backends() {
  static const std::vector<SimdBackend> list = [] {
    std::vector<SimdBackend> v{SimdBackend::kScalar};
    for (const SimdBackend b : {SimdBackend::kSse4, SimdBackend::kNeon, SimdBackend::kAvx2}) {
      if (compiled_in(b) && cpu_supports(b)) v.push_back(b);
    }
    return v;
  }();
  return list;
}

SimdBackend widest_verified_backend() {
  static const SimdBackend widest = [] {
    const std::vector<SimdBackend>& avail = available_simd_backends();
    for (auto it = avail.rbegin(); it != avail.rend(); ++it) {
      if (*it == SimdBackend::kScalar) break;
      if (probe_matches_scalar(simd_kernels(*it))) return *it;
      std::fprintf(stderr,
                   "gstg: SIMD backend '%s' failed the bit-identity probe; "
                   "excluded from kAuto\n",
                   to_string(*it));
    }
    return SimdBackend::kScalar;
  }();
  return widest;
}

// gstg-lint: boundary(R1): resolution funnels into function-local statics
// (availability scan, bit-identity probe) computed once per process; every
// steady-state call returns the cached backend without allocating.
SimdBackend resolve_simd_backend(SimdBackend requested) {
  if (requested == SimdBackend::kAuto) {
    const SimdBackend env = simd_backend_from_env();
    if (env == SimdBackend::kAuto) return widest_verified_backend();
    requested = env;
  }
  for (const SimdBackend b : available_simd_backends()) {
    if (b == requested) return requested;
  }
  warn_unavailable_once(requested);
  return SimdBackend::kScalar;
}

const SimdKernels& simd_kernels(SimdBackend backend) {
  switch (backend) {
    case SimdBackend::kScalar: {
      static const SimdKernels k{SimdBackend::kScalar, 1,
                                 &simd_scalar::rasterize_tile_kernel,
                                 &simd_scalar::rasterize_tile_sortless_kernel,
                                 &simd_scalar::preprocess_chunk_kernel};
      return k;
    }
    case SimdBackend::kSse4:
#if defined(GSTG_SIMD_HAVE_SSE4)
    {
      static const SimdKernels k{SimdBackend::kSse4, 4, &simd_sse4::rasterize_tile_kernel,
                                 &simd_sse4::rasterize_tile_sortless_kernel,
                                 &simd_sse4::preprocess_chunk_kernel};
      return k;
    }
#else
      break;
#endif
    case SimdBackend::kAvx2:
#if defined(GSTG_SIMD_HAVE_AVX2)
    {
      static const SimdKernels k{SimdBackend::kAvx2, 8, &simd_avx2::rasterize_tile_kernel,
                                 &simd_avx2::rasterize_tile_sortless_kernel,
                                 &simd_avx2::preprocess_chunk_kernel};
      return k;
    }
#else
      break;
#endif
    case SimdBackend::kNeon:
#if defined(GSTG_SIMD_HAVE_NEON)
    {
      static const SimdKernels k{SimdBackend::kNeon, 4, &simd_neon::rasterize_tile_kernel,
                                 &simd_neon::rasterize_tile_sortless_kernel,
                                 &simd_neon::preprocess_chunk_kernel};
      return k;
    }
#else
      break;
#endif
    case SimdBackend::kAuto:
      break;
  }
  throw std::invalid_argument(std::string("simd_kernels: backend '") + to_string(backend) +
                              "' is not compiled into this binary (resolve first)");
}

}  // namespace gstg
