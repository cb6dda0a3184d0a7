// Runtime-dispatched SIMD kernels for the two rendering hot paths: the
// per-pixel blending loop of rasterize_tile and the projection/conic math of
// preprocess. One kernel translation unit exists per backend
// (simd_kernels_{scalar,sse4,avx2,neon}.cpp), each compiling the SAME
// width-generic implementation (simd_kernels.inl) under that backend's
// target flags with floating-point contraction disabled — so exact-mode
// results are bit-identical across backends (see common/simd.h).
//
// Dispatch is a function-pointer kernel table selected at runtime:
// resolve_simd_backend(kAuto) is the widest backend that is compiled in,
// supported by the running CPU, and passed a one-time bit-identity probe
// against the scalar kernel (widest_verified_backend()). An explicitly
// requested backend that is unavailable is a ConfigError, never a fallback.
// Nothing here reads the environment: GSTG_SIMD sets a config's backend at
// process edges (resolve_from_env, common/runconfig.h).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "camera/camera.h"
#include "common/simd.h"
#include "gaussian/cloud.h"
#include "render/framebuffer.h"
#include "render/rasterize.h"
#include "render/types.h"

namespace gstg {

/// Inputs of one preprocess chunk: the cloud/camera pair plus the
/// slot-per-input output arrays of preprocess_into (see render/preprocess.h).
struct PreprocessChunkArgs {
  const GaussianCloud* cloud = nullptr;
  const Camera* camera = nullptr;
  bool opacity_aware_rho = false;
  Vec3 cam_pos;  ///< camera centre in world space (SH view direction)
  ProjectedSplat* slots = nullptr;
  std::uint8_t* keep = nullptr;
};

/// One backend's kernel table.
struct SimdKernels {
  SimdBackend backend = SimdBackend::kScalar;
  int lane_width = 1;

  /// The rasterize_tile inner loop. Bounds must already be validated.
  TileRasterStats (*rasterize_tile)(std::span<const ProjectedSplat> splats,
                                    std::span<const std::uint32_t> order, int x0, int y0,
                                    int x1, int y1, Framebuffer& fb,
                                    TileRasterScratch& scratch) = nullptr;

  /// The sortless (order-independent transmittance) tile loop: `order` may
  /// be in any order; the output is bit-identical for every permutation.
  TileRasterStats (*rasterize_tile_sortless)(std::span<const ProjectedSplat> splats,
                                             std::span<const std::uint32_t> order, int x0,
                                             int y0, int x1, int y1, Framebuffer& fb,
                                             SortlessRasterScratch& scratch) = nullptr;

  /// Projects and culls cloud Gaussians [lo, hi) into args.slots/args.keep.
  void (*preprocess_chunk)(const PreprocessChunkArgs& args, std::size_t lo,
                           std::size_t hi) = nullptr;
};

/// Backends compiled into this binary AND executable on the running CPU, in
/// ascending width order. Always starts with kScalar.
const std::vector<SimdBackend>& available_simd_backends();

/// The widest available backend whose rasterization AND preprocess kernels
/// reproduced the scalar kernels bit-for-bit on the verification probes
/// (evaluated once per process). kScalar when nothing wider is available.
SimdBackend widest_verified_backend();

/// Resolves a requested backend to a concrete (non-kAuto) one:
///   kAuto    -> widest_verified_backend();
///   explicit -> itself (require_simd_backend checks it first).
SimdBackend resolve_simd_backend(SimdBackend requested);

/// Throws ConfigError naming `backend` unless it is kAuto or one of
/// available_simd_backends(). The one availability check: config
/// validation and resolve_simd_backend both call it.
void require_simd_backend(SimdBackend backend);

/// Kernel table of a concrete backend (resolve first; throws
/// std::invalid_argument for kAuto or a backend that is not compiled in).
const SimdKernels& simd_kernels(SimdBackend backend);

}  // namespace gstg
