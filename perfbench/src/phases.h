// The measurement phases the workloads share, and the metrics each emits.
// Metric names and units here must match BENCHMARK.json; run.py checks the
// printed set against it.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/renderer.h"
#include "harness.h"
#include "scene/scene.h"
#include "stages.h"

namespace perfbench {

struct RunArgs {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string trace_out;  ///< Perfetto JSON path of a traced run ("" = not written)
};

/// Writes `trace` to args.trace_out (when set), with the run's workload,
/// seed, resolved SIMD backend and core count as metadata.
void write_trace(const Trace& trace, const RunArgs& args);

/// What a run reports: the metrics plus the operation and check tallies.
struct Outcome {
  Report report;
  std::size_t attempted = 0;  ///< frames (orbit_*) or requests (service_tour)
  std::size_t failed = 0;     ///< operations that threw or were answered with an error
  std::vector<std::string> mismatches;

  void mismatch(const std::string& what) { mismatches.push_back(what); }
  [[nodiscard]] bool correct() const { return mismatches.empty(); }
};

/// Runs `setup` `reps` times and returns the median wall time in seconds.
template <typename Fn>
double median_setup_s(int reps, Fn&& setup) {
  std::vector<double> s;
  for (int i = 0; i < reps; ++i) {
    const auto t0 = Clock::now();
    setup(i);
    s.push_back(ms_between(t0, Clock::now()) / 1000.0);
  }
  return median(std::move(s));
}

inline constexpr int kSetupReps = 3;

/// Per-view frame times of the GS-TG renderer and the baseline, and the
/// closed-loop request latency (GS-TG frame plus handing its image to the
/// caller). Index i of every vector is the same view.
struct FrameSamples {
  std::vector<double> gstg_ms;
  std::vector<double> baseline_ms;
  std::vector<double> req_ms;
};

/// Renders `camera` through Renderer::render and render_baseline in the
/// given order, timing each, and appends to `samples`. The GS-TG image is
/// copied to `handoff`; a baseline image that differs from it in any bit is
/// a lossless-gate mismatch.
void time_pair(const gstg::Renderer& renderer, gstg::FrameContext& ctx,
               const gstg::GaussianCloud& cloud, const gstg::Camera& camera, bool baseline_first,
               gstg::Framebuffer& handoff, FrameSamples& samples, Outcome& out);

/// frame_ms_p50 and baseline_frame_ms_p50.
void add_frame_metrics(Report& report, const FrameSamples& samples);

/// req_ms_p50 and slo_share. `latency_ms` holds one entry per attempted
/// operation; failed ones are negative and count as SLO misses. The latency
/// tail is gated through slo_share: its percentiles moved 25-35% between
/// runs on a shared 4-vCPU VM, beyond any bound the benchmark can hold, so
/// they are reported per layer (service.req_ms_p90, service.req_ms_p98).
void add_request_metrics(Report& report, const std::vector<double>& latency_ms, double slo_ms);

/// Simulator runs on fixed (seed-independent) views, each simulated twice;
/// any difference between the two is a mismatch.
std::vector<SimView> run_sim(const gstg::Scene& scene, const gstg::GsTgConfig& config,
                             Trace* trace, Outcome& out);

/// sim_frame_kcycles and sim_speedup_vs_baseline.
void add_sim_metrics(Report& report, const std::vector<SimView>& sims);
/// sim.* per-layer metrics.
void add_sim_layers(Report& report, const std::vector<SimView>& sims);

/// Counters and paired timings of the traced stage-by-stage frames.
struct StagedSamples {
  std::vector<double> gstg_ms;      ///< untraced Renderer::render
  std::vector<double> baseline_ms;  ///< untraced render_baseline
  std::vector<double> staged_ms;    ///< traced GS-TG frame (core.frame span)
  gstg::RenderCounters gstg;        ///< summed over views
  gstg::RenderCounters baseline;
  std::size_t mask_hits = 0;
  std::size_t views = 0;
};

/// For each camera in order until `budget_s` has passed (and at least ten
/// views): untraced Renderer::render and render_baseline, then the same
/// frames composed stage by stage under spans. Staged images that differ
/// from the production calls' are mismatches.
StagedSamples staged_pass(const gstg::GsTgConfig& config, const gstg::GaussianCloud& cloud,
                          const std::vector<gstg::Camera>& cameras, double budget_s,
                          Trace& trace, Outcome& out);

/// render.* and core.* per-layer metrics.
void add_render_core_layers(Report& report, const Trace& trace, const StagedSamples& s);

}  // namespace perfbench
