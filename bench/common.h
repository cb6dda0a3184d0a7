// Shared infrastructure for the benchmark binaries: per-process scene cache
// (scenes are deterministic, so generating once per binary is sound) and
// small helpers for the paper-shaped output tables.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <utility>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

#include "common/cli.h"
#include "common/runconfig.h"
#include "common/timer.h"
#include "scene/scene.h"

namespace gstg::benchutil {

/// Scenes used by the algorithm-evaluation figures (paper section VI-B).
inline const std::vector<std::string>& algo_scene_names() {
  static const std::vector<std::string> names = {"train", "truck", "drjohnson", "playroom"};
  return names;
}

/// All six scenes (hardware evaluation, Figs. 14/15).
inline const std::vector<std::string>& all_scene_names() {
  static const std::vector<std::string> names = {"train",    "truck",  "drjohnson",
                                                 "playroom", "rubble", "residence"};
  return names;
}

/// Generates each scene at most once per process at the env-selected scale.
inline const Scene& cached_scene(const std::string& name) {
  static std::map<std::string, Scene> cache;
  const auto it = cache.find(name);
  if (it != cache.end()) return it->second;
  return cache.emplace(name, generate_scene(name)).first->second;
}

/// Comma-separated list -> items (empty fields dropped).
inline std::vector<std::string> split_csv(const std::string& csv) {
  std::vector<std::string> out;
  std::string::size_type start = 0;
  while (start <= csv.size()) {
    const auto comma = csv.find(',', start);
    const auto end = (comma == std::string::npos) ? csv.size() : comma;
    if (end > start) out.push_back(csv.substr(start, end - start));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return out;
}

/// The JSON drivers' --scenes=a,b list; absent or empty means
/// algo_scene_names(). Every name is checked with scene_info, so an unknown
/// one throws before the driver opens (and truncates) its JSON file.
inline std::vector<std::string> requested_scenes(const CliArgs& args) {
  std::vector<std::string> names = split_csv(args.get("scenes", ""));
  if (names.empty()) names = algo_scene_names();
  for (const std::string& name : names) scene_info(name);
  return names;
}

/// Peak resident set size of this process in bytes, or 0 when unavailable.
/// Primary source is getrusage (ru_maxrss: kilobytes on Linux, bytes on
/// macOS); Linux falls back to VmHWM in /proc/self/status when getrusage
/// reports nothing. Recorded as `peak_rss_bytes` in every bench JSON — the
/// memory half of the full-scale-scene readiness question (ROADMAP item 1).
inline std::uint64_t peak_rss_bytes() {
#if defined(__unix__) || defined(__APPLE__)
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) == 0 && usage.ru_maxrss > 0) {
#if defined(__APPLE__)
    return static_cast<std::uint64_t>(usage.ru_maxrss);
#else
    return static_cast<std::uint64_t>(usage.ru_maxrss) * 1024u;
#endif
  }
#endif
#if defined(__linux__)
  // Fallback: VmHWM ("high water mark") from /proc/self/status, in kB.
  if (std::FILE* status = std::fopen("/proc/self/status", "r")) {
    char line[256];
    std::uint64_t kb = 0;
    while (std::fgets(line, sizeof(line), status) != nullptr) {
      if (std::strncmp(line, "VmHWM:", 6) == 0 &&
          std::sscanf(line + 6, "%llu", reinterpret_cast<unsigned long long*>(&kb)) == 1) {
        break;
      }
    }
    std::fclose(status);
    if (kb > 0) return kb * 1024u;
  }
#endif
  return 0;
}

/// Best-of-N wall-clock of an action, in milliseconds: the least-noisy
/// sample of `repeat` runs (at least one).
template <typename Fn>
double best_ms_of(int repeat, const Fn& fn) {
  double best = 1e300;
  for (int i = 0; i < std::max(1, repeat); ++i) {
    Timer timer;
    fn();
    best = std::min(best, timer.lap_ms());
  }
  return best;
}

/// Best-of-N render: of `repeat` runs (at least one), the result whose
/// StageTimes total is least, so a report carries the least-noisy timing
/// sample together with that run's image and counters.
template <typename RenderFn>
auto best_of(int repeat, const RenderFn& render) {
  auto best = render();
  for (int i = 1; i < repeat; ++i) {
    auto r = render();
    if (r.times.total_ms() < best.times.total_ms()) best = std::move(r);
  }
  return best;
}

/// Banner describing the workload scale, printed by every bench binary so
/// recorded outputs are self-describing.
inline void print_scale_banner(const char* what) {
  const RunScale scale = run_scale_from_env();
  std::printf("# %s | scale: resolution /%d, Gaussians /%d%s (set GSTG_SCALE=full for paper scale)\n",
              what, scale.resolution_divisor, scale.gaussian_divisor,
              scale.is_full() ? " [paper scale]" : "");
}

}  // namespace gstg::benchutil
