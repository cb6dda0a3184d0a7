#include <cstdio>
#include <memory>
#include <optional>

#include "inputs.h"
#include "render/pipeline.h"
#include "workloads.h"

namespace perfbench {

namespace {

const char* const kOrbitScene = "drjohnson";
constexpr gstg::RunScale kOrbitScale{4, 16};

/// Latency limit of slo_share.
constexpr double kSloMs = 500.0;

/// Views on the orbit. A window lasts at least this many frames, so every
/// run renders every view and the seed moves only the orbit's phase and
/// the order.
constexpr std::size_t kOrbitViews = 100;

/// Upper bound on a window, far below the per-run time limit.
constexpr double kMaxWindowS = 120.0;

}  // namespace

void add_bypassed_service_layers(Report& report) {
  for (const char* name : {"temporal.reuse_pair_ratio", "temporal.groups_resorted_share"}) {
    report.add(name, 0.0, "ratio");
  }
  report.add("temporal.frame_ms_p50", 0.0, "ms");
  report.add("service.req_ms_p90", 0.0, "ms");
  report.add("service.req_ms_p98", 0.0, "ms");
  report.add("service.render_ms_p50", 0.0, "ms");
  report.add("service.wait_ms_p50", 0.0, "ms");
  report.add("service.submit_ms_p98", 0.0, "ms");
  report.add("service.batch_size_mean", 0.0, "count");
  report.add("service.peak_queue_depth", 0.0, "count");
  report.add("service.cache_hit_ratio", 0.0, "ratio");
  report.add("loadgen.late_ms_p98", 0.0, "ms");
  report.add("loadgen.backlog_end", 0.0, "count");
}

Outcome run_orbit(const RunArgs& args) {
  Outcome out;
  Trace trace;
  const gstg::GsTgConfig config = gstg_config();

  // Set-up: scene synthesis, renderer construction and one warm-up frame
  // through each pipeline, repeated; the last repetition's state is used.
  std::optional<gstg::Scene> scene;
  std::unique_ptr<gstg::Renderer> renderer;
  gstg::FrameContext ctx;
  const double setup_s = median_setup_s(kSetupReps, [&](int rep) {
    const int span = args.trace ? trace.begin("scene.generate", -1, rep) : -1;
    scene.emplace(gstg::generate_scene(kOrbitScene, kOrbitScale));
    if (args.trace) trace.end(span);
    renderer = std::make_unique<gstg::Renderer>(config);
    ctx = gstg::FrameContext();
    renderer->render(scene->cloud, scene->camera, ctx);
    (void)gstg::render_baseline(scene->cloud, scene->camera, config.render_config());
  });

  Rng rng(args.seed);
  const std::vector<gstg::Camera> orbit =
      orbit_views(*scene, static_cast<int>(kOrbitViews), rng.uniform());
  std::vector<gstg::Camera> views;
  for (const std::size_t i : shuffled(orbit.size(), rng)) views.push_back(orbit[i]);

  if (args.trace) {
    const StagedSamples staged =
        staged_pass(config, scene->cloud, views, args.seconds / 2.0, trace, out);
    out.attempted = staged.views;
    const std::vector<SimView> sims = run_sim(*scene, config, &trace, out);
    out.report.add("scene.generate_ms", trace.median_ms("scene.generate"), "ms");
    add_render_core_layers(out.report, trace, staged);
    add_bypassed_service_layers(out.report);
    add_sim_layers(out.report, sims);
    write_trace(trace, args);
    return out;
  }

  // Closed loop: the next view is requested when the previous one is back.
  // The window lasts --seconds, and longer until every view was rendered.
  FrameSamples samples;
  std::vector<double> latency_ms;
  gstg::Framebuffer handoff(1, 1);
  const auto start = Clock::now();
  for (std::size_t i = 0;; ++i) {
    const double elapsed_s = ms_between(start, Clock::now()) / 1000.0;
    if ((samples.gstg_ms.size() >= kOrbitViews && elapsed_s >= args.seconds) ||
        elapsed_s >= kMaxWindowS) {
      break;
    }
    ++out.attempted;
    try {
      time_pair(*renderer, ctx, scene->cloud, views[i % views.size()], i % 2 == 1, handoff,
                samples, out);
      latency_ms.push_back(samples.req_ms.back());
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: frame %zu failed: %s\n", i, e.what());
      ++out.failed;
      latency_ms.push_back(-1.0);
    }
  }
  const std::vector<SimView> sims = run_sim(*scene, config, nullptr, out);

  Report& r = out.report;
  r.add("setup_s", setup_s, "s");
  r.add("peak_rss_mb", peak_rss_mb(), "MiB");
  r.add("ok_share",
        static_cast<double>(out.attempted - out.failed) / static_cast<double>(out.attempted),
        "ratio");
  add_frame_metrics(r, samples);
  add_sim_metrics(r, sims);
  add_request_metrics(r, latency_ms, kSloMs);
  return out;
}

}  // namespace perfbench
