// Global experiment scaling configuration.
//
// The paper evaluates multi-million-Gaussian scenes at up to 5472x3648. The
// benchmark harness defaults to a reduced scale so the whole suite completes
// on a small CI machine; every reported quantity is a ratio, so the paper's
// shapes survive (see DESIGN.md section 5). GSTG_SCALE=full restores
// paper-scale workloads.
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>

#include "common/simd.h"

namespace gstg {

/// Central registry of every GSTG_* environment variable the project reads.
/// A "GSTG_*" string literal anywhere in src/ must appear here AND in the
/// environment-variable table of docs/CONFIG.md — lint rule R4
/// (tools/lint/gstg_lint.py) enforces both, so a new knob cannot ship
/// undocumented or unregistered. Keep the list sorted.
inline constexpr const char* kGstgEnvVars[] = {
    "GSTG_METRICS",           // telemetry: metrics JSON written at process exit
    "GSTG_PIPELINE",          // resolve_from_env (exact/sortless/verify)
    "GSTG_RESIDENCY",         // resolve_from_env (float32/compressed/verify)
    "GSTG_SCALE",             // run_scale_from_env (bench/small/full)
    "GSTG_SERVICE_BATCH",     // render service: max batched requests per worker wake
    "GSTG_SERVICE_QUEUE",     // render service: bounded queue capacity
    "GSTG_SERVICE_SCENES",    // render service: scene cache capacity
    "GSTG_SERVICE_SESSIONS",  // render service: per-session renderer cache capacity
    "GSTG_SERVICE_WORKERS",   // render service: worker thread count
    "GSTG_SIMD",              // resolve_from_env (auto/scalar/sse4/avx2/neon)
    "GSTG_TEMPORAL",          // resolve_from_env (off/reuse/verify)
    "GSTG_THREADS",           // worker_thread_count override
    "GSTG_TRACE",             // telemetry: trace JSON written at process exit
};

/// A malformed or unknown operator-set value: a GSTG_* run knob, or a
/// command-line flag parsed by CliArgs. The message names the variable or
/// flag, the value and what was expected. Derives from
/// std::invalid_argument, so precondition-style catch sites still hold.
class ConfigError : public std::invalid_argument {
 public:
  using std::invalid_argument::invalid_argument;
};

/// Workload scaling applied by the scene recipes.
struct RunScale {
  /// Linear resolution divisor (1 = paper resolution, 4 = 1/4 width & height).
  int resolution_divisor = 4;
  /// Gaussian-count divisor applied to each scene recipe's paper-scale count.
  int gaussian_divisor = 16;

  [[nodiscard]] bool is_full() const {
    return resolution_divisor == 1 && gaussian_divisor == 1;
  }
};

/// Reads GSTG_SCALE from the environment:
///   unset / "bench" -> reduced scale (divisors 4 / 16)
///   "small"         -> extra-small scale for smoke tests (divisors 8 / 64)
///   "full"          -> paper scale (divisors 1 / 1)
/// Any other value (empty, misspelt, other case) throws ConfigError naming
/// the variable, the value and the accepted names.
RunScale run_scale_from_env();

/// Number of worker threads for the software pipelines (GSTG_THREADS or
/// hardware_concurrency). A set-but-malformed GSTG_THREADS (non-numeric,
/// trailing garbage, zero, negative) throws ConfigError naming the variable
/// and value — a typo must not silently fall back to hardware concurrency.
std::size_t worker_thread_count();

/// Strictly parses a positive-integer environment override: the entire
/// value must be a decimal integer >= 1 (no trailing garbage, no sign, no
/// whitespace). Returns `fallback` when the variable is unset; throws
/// ConfigError naming the variable and value otherwise. Every numeric
/// environment override (GSTG_THREADS, the GSTG_SERVICE_* knobs) goes
/// through this one parser so they all reject malformed input the same way.
std::size_t env_positive_size(const char* name, std::size_t fallback);

/// Cross-frame group-sort reuse mode of the temporal renderer
/// (src/temporal/temporal_renderer.h). Lives here, next to the other run
/// modes, so core's config can carry the knob without depending on the
/// temporal layer.
///   kOff    — sort every group every frame (the plain renderer's behaviour)
///   kReuse  — reuse the previous frame's per-group order when the O(n)
///             validity check proves it is still the exact sorted order
///   kVerify — reuse, then compare every group with the kOff frame's
///             order, which ships (the lossless-invariant audit mode)
enum class TemporalMode : std::uint8_t { kOff, kReuse, kVerify };

[[nodiscard]] const char* to_string(TemporalMode mode);

/// Read by nothing; it stays only so that perfbench/ builds unchanged.
enum class BinningMode : std::uint8_t { kAuto };

/// Resident representation of the Gaussian cloud inside the renderer
/// (gaussian/compressed.h). Lives here, next to the other run modes, so
/// core's config can carry the knob without depending on the compressed
/// form's implementation.
///   kFloat32    — render from the full-precision float32 SoA (a compressed
///                 input is decoded up front into frame scratch)
///   kCompressed — keep only the fp16 SoA resident and decode fixed-size
///                 blocks on touch inside preprocess (half the resident
///                 bytes, the memory-bandwidth execution model of the
///                 129FPS Full-HD accelerator)
///   kVerify     — stream-decode, then assert the splats equal those of
///                 the kFloat32 frame bit for bit (the audit mode)
enum class ResidencyMode : std::uint8_t { kFloat32, kCompressed, kVerify };

[[nodiscard]] const char* to_string(ResidencyMode mode);

/// Blending discipline of the rasterization stage. Lives here, next to the
/// other run modes, so both the render and core configs can carry the knob.
/// Unlike every other mode pair in this file, kSortless is intentionally
/// LOSSY: it trades the per-group depth sort (the paper's whole subject)
/// for order-independent transmittance blending, gated on a PSNR/SSIM
/// floor instead of bit-identity.
///   kExact    — depth-sorted front-to-back alpha blending; bit-identical
///               output (the standing lossless gate applies)
///   kSortless — skip group sorting entirely and blend the unsorted lists
///               with order-independent transmittance (Wang et al., arXiv
///               2506.07069); deterministic bit-for-bit across thread
///               counts, SIMD backends and list orders, but approximate
///               with respect to exact output
///   kVerify   — ship the sortless image and report its PSNR/SSIM
///               against the kExact frame (the quality-audit mode; see
///               src/render/quality.h)
enum class PipelineMode : std::uint8_t { kExact, kSortless, kVerify };

[[nodiscard]] const char* to_string(PipelineMode mode);

/// The one strict parser of the mode knobs: returns `configured` when the
/// variable `name` is unset, the mode whose to_string() spells its value
/// otherwise, and throws ConfigError naming the variable, the value and
/// the accepted values for anything else.
[[nodiscard]] PipelineMode mode_from_env(const char* name, PipelineMode configured);
[[nodiscard]] ResidencyMode mode_from_env(const char* name, ResidencyMode configured);
[[nodiscard]] TemporalMode mode_from_env(const char* name, TemporalMode configured);
[[nodiscard]] SimdBackend mode_from_env(const char* name, SimdBackend configured);

/// Applies GSTG_PIPELINE, GSTG_RESIDENCY, GSTG_TEMPORAL and GSTG_SIMD to
/// the matching fields of a render config (core/gstg_config.h's GsTgConfig;
/// a template only so this layer needs no core header). Only process edges
/// call it — the examples' mains and the RenderService constructor — on the
/// thread that owns the process before render workers exist. The library
/// itself never reads these variables: a Renderer, TemporalRenderer or
/// render_baseline renders exactly the config it is given. A GSTG_SIMD
/// backend the build or CPU lacks parses here and fails the config's
/// validate().
template <class Config>
[[nodiscard]] Config resolve_from_env(Config config) {
  config.pipeline = mode_from_env("GSTG_PIPELINE", config.pipeline);
  config.residency = mode_from_env("GSTG_RESIDENCY", config.residency);
  config.temporal = mode_from_env("GSTG_TEMPORAL", config.temporal);
  config.simd.backend = mode_from_env("GSTG_SIMD", config.simd.backend);
  return config;
}

}  // namespace gstg
