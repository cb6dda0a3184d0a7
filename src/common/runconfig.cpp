#include "common/runconfig.h"

#include <array>
#include <charconv>
#include <cstring>
#include <cstdlib>
#include <string>
#include <thread>

namespace gstg {

RunScale run_scale_from_env() {
  const char* env = std::getenv("GSTG_SCALE");  // NOLINT(concurrency-mt-unsafe): read once before worker threads exist
  const std::string value = env ? env : "bench";
  if (value == "bench") return RunScale{};
  if (value == "small") return RunScale{.resolution_divisor = 8, .gaussian_divisor = 64};
  if (value == "full") return RunScale{.resolution_divisor = 1, .gaussian_divisor = 1};
  throw ConfigError("GSTG_SCALE: unknown value '" + value +
                    "' (expected one of bench/small/full)");
}

const char* to_string(TemporalMode mode) {
  switch (mode) {
    case TemporalMode::kOff:
      return "off";
    case TemporalMode::kReuse:
      return "reuse";
    case TemporalMode::kVerify:
      return "verify";
  }
  return "?";
}

const char* to_string(ResidencyMode mode) {
  switch (mode) {
    case ResidencyMode::kFloat32:
      return "float32";
    case ResidencyMode::kCompressed:
      return "compressed";
    case ResidencyMode::kVerify:
      return "verify";
  }
  return "?";
}

const char* to_string(PipelineMode mode) {
  switch (mode) {
    case PipelineMode::kExact:
      return "exact";
    case PipelineMode::kSortless:
      return "sortless";
    case PipelineMode::kVerify:
      return "verify";
  }
  return "?";
}

namespace {

/// Table-driven strict lookup behind every mode_from_env overload: the
/// value must spell one of `modes` exactly as to_string() prints it.
template <class Mode, std::size_t N>
Mode parse_mode(const char* name, Mode configured, const std::array<Mode, N>& modes) {
  const char* env = std::getenv(name);  // NOLINT(concurrency-mt-unsafe): resolve_from_env runs at process edges, before render workers exist
  if (env == nullptr) return configured;
  std::string accepted;
  for (const Mode mode : modes) {
    if (std::strcmp(env, to_string(mode)) == 0) return mode;
    if (!accepted.empty()) accepted += '/';
    accepted += to_string(mode);
  }
  throw ConfigError(std::string(name) + ": unknown value '" + env + "' (expected one of " +
                    accepted + ")");
}

}  // namespace

PipelineMode mode_from_env(const char* name, PipelineMode configured) {
  return parse_mode(name, configured,
                    std::array{PipelineMode::kExact, PipelineMode::kSortless, PipelineMode::kVerify});
}

ResidencyMode mode_from_env(const char* name, ResidencyMode configured) {
  return parse_mode(name, configured,
                    std::array{ResidencyMode::kFloat32, ResidencyMode::kCompressed,
                               ResidencyMode::kVerify});
}

TemporalMode mode_from_env(const char* name, TemporalMode configured) {
  return parse_mode(name, configured,
                    std::array{TemporalMode::kOff, TemporalMode::kReuse, TemporalMode::kVerify});
}

SimdBackend mode_from_env(const char* name, SimdBackend configured) {
  return parse_mode(name, configured,
                    std::array{SimdBackend::kAuto, SimdBackend::kScalar, SimdBackend::kSse4,
                               SimdBackend::kAvx2, SimdBackend::kNeon});
}

std::size_t env_positive_size(const char* name, std::size_t fallback) {
  const char* env = std::getenv(name);  // NOLINT(concurrency-mt-unsafe): read once before worker threads exist
  if (env == nullptr) return fallback;
  // std::from_chars is the strict parser here on purpose: unlike strtol
  // with a null end pointer it accepts no leading whitespace, no '+', no
  // trailing garbage — "8garbage" and " 8" are both rejected, and the end
  // pointer check catches a partially-consumed value. Parsing works on the
  // environment's own buffer: this runs inside worker-count resolution on
  // render paths, which must not allocate (lint rule R1).
  std::size_t parsed = 0;
  const char* begin = env;
  const char* end = env + std::strlen(env);
  const auto [ptr, ec] = std::from_chars(begin, end, parsed);
  if (ec == std::errc::result_out_of_range) {
    throw ConfigError(std::string(name) + ": value out of range '" + env + "'");
  }
  if (ec != std::errc() || ptr != end || parsed == 0) {
    throw ConfigError(std::string(name) + ": invalid value '" + std::string(env) +
                      "' (expected a positive integer)");
  }
  return parsed;
}

std::size_t worker_thread_count() {
  const unsigned hw = std::thread::hardware_concurrency();
  return env_positive_size("GSTG_THREADS", hw == 0 ? 1 : hw);
}

}  // namespace gstg
