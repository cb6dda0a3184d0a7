// perfbench: one run of one benchmark workload (see README.md).
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-out <path>]
//
// Prints one JSON object as the last line of stdout: end-to-end metrics
// with --trace 0, per-layer metrics with --trace 1. Exits 1 when an output
// check fails and 2 on a usage error or an ambient GSTG_* override.
#include <malloc.h>

#include <cstdio>
#include <exception>
#include <string>
#include <thread>

#include "inputs.h"
#include "workloads.h"

extern char** environ;

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload orbit_indoor|service_tour"
               " --seed <n> --seconds <s> --trace <0|1> [--trace-out <path>]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  // glibc raises its mmap and trim thresholds the first time a large block
  // is freed, at a moment that depends on thread timing, and peak RSS then
  // lands in one of two modes ~5 MiB apart. Fixing both at the values that
  // adaptation tends to (the 32 MiB ceiling, trim at twice that) makes
  // peak_rss_mb repeat: frame-sized buffers come from the heap and freed
  // memory is kept for the next frame instead of being faulted in again.
  if (mallopt(M_MMAP_THRESHOLD, 32 * 1024 * 1024) != 1 ||
      mallopt(M_TRIM_THRESHOLD, 64 * 1024 * 1024) != 1) {
    std::fprintf(stderr, "perfbench: mallopt failed\n");
    return 2;
  }
  const std::vector<std::string> overrides = gstg_overrides(environ);
  if (!overrides.empty()) {
    std::fprintf(stderr, "perfbench: refusing to run while %s is set: GSTG_* variables "
                 "change what the program renders or measures\n", overrides.front().c_str());
    return 2;
  }

  RunArgs args;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        args.workload = value;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
        have_seed = true;
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") return usage("--trace must be 0 or 1");
        args.trace = value == "1";
      } else if (flag == "--trace-out") {
        args.trace_out = value;
      } else {
        return usage(("unknown flag " + flag).c_str());
      }
    } catch (const std::exception&) {
      return usage(("bad value for " + flag).c_str());
    }
  }
  if (!have_seed || !(args.seconds > 0.0)) return usage("--seed and --seconds > 0 are required");

  Outcome out;
  try {
    if (args.workload == "orbit_indoor") {
      out = run_orbit(args);
    } else if (args.workload == "service_tour") {
      out = run_tour(args);
    } else {
      return usage(("unknown workload " + args.workload).c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", args.workload.c_str(), e.what());
    return 1;
  }

  for (const std::string& m : out.mismatches) {
    std::fprintf(stderr, "perfbench: MISMATCH %s\n", m.c_str());
  }
  std::printf("perfbench: workload=%s seed=%llu seconds=%g trace=%d simd=%s nproc=%u "
              "render_threads=1 operations=%zu failed=%zu\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0, simd_backend(), std::thread::hardware_concurrency(),
              out.attempted, out.failed);
  std::printf("%s\n", out.report.json(out.correct(), out.attempted, out.failed).c_str());
  return out.correct() ? 0 : 1;
}
