#include "phases.h"

#include <thread>

#include "inputs.h"
#include "render/pipeline.h"
#include "sim/report.h"

namespace perfbench {

void write_trace(const Trace& trace, const RunArgs& args) {
  if (args.trace_out.empty()) return;
  trace.write(args.trace_out,
              "\"workload\": \"" + args.workload + "\", \"seed\": " + std::to_string(args.seed) +
                  ", \"simd\": \"" + simd_backend() + "\", \"nproc\": " +
                  std::to_string(std::thread::hardware_concurrency()));
}

void time_pair(const gstg::Renderer& renderer, gstg::FrameContext& ctx,
               const gstg::GaussianCloud& cloud, const gstg::Camera& camera, bool baseline_first,
               gstg::Framebuffer& handoff, FrameSamples& samples, Outcome& out) {
  const gstg::RenderConfig rc = renderer.config().render_config();
  gstg::RenderResult baseline{gstg::Framebuffer(1, 1), {}, {}, {}};
  double baseline_ms = 0.0;
  const auto run_baseline = [&] {
    const auto t0 = Clock::now();
    baseline = gstg::render_baseline(cloud, camera, rc);
    baseline_ms = ms_between(t0, Clock::now());
  };
  if (baseline_first) run_baseline();
  const auto t0 = Clock::now();
  renderer.render(cloud, camera, ctx);
  const auto t1 = Clock::now();
  handoff = ctx.image;
  const auto t2 = Clock::now();
  if (!baseline_first) run_baseline();

  samples.gstg_ms.push_back(ms_between(t0, t1));
  samples.req_ms.push_back(ms_between(t0, t2));
  samples.baseline_ms.push_back(baseline_ms);
  if (!images_identical(handoff, baseline.image)) {
    out.mismatch("lossless gate: GS-TG and baseline images differ");
  }
}

void add_frame_metrics(Report& report, const FrameSamples& samples) {
  report.add("frame_ms_p50", median(samples.gstg_ms), "ms");
  report.add("baseline_frame_ms_p50", median(samples.baseline_ms), "ms");
}

void add_request_metrics(Report& report, const std::vector<double>& latency_ms, double slo_ms) {
  std::vector<double> answered;
  std::size_t within = 0;
  for (const double ms : latency_ms) {
    if (ms < 0.0) continue;
    answered.push_back(ms);
    if (ms <= slo_ms) ++within;
  }
  report.add("req_ms_p50", median(answered), "ms");
  report.add("slo_share",
             static_cast<double>(within) / static_cast<double>(latency_ms.size()), "ratio");
}

std::vector<SimView> run_sim(const gstg::Scene& scene, const gstg::GsTgConfig& config,
                             Trace* trace, Outcome& out) {
  // Two fixed views: the simulated figures are deterministic, so they are
  // the same on every run and seed, and a repeat must reproduce them.
  const std::vector<gstg::Camera> views = orbit_views(scene, 2, 0.0);
  std::vector<SimView> sims;
  for (std::size_t v = 0; v < views.size(); ++v) {
    const int span = trace != nullptr ? trace->begin("sim.view", -1, static_cast<int>(v)) : -1;
    sims.push_back(simulate_view(scene.cloud, views[v], config));
    if (trace != nullptr) trace->end(span);
    if (!same_simulation(sims.back(), simulate_view(scene.cloud, views[v], config))) {
      out.mismatch("simulator: repeat of view " + std::to_string(v) + " differs");
    }
  }
  return sims;
}

void add_sim_metrics(Report& report, const std::vector<SimView>& sims) {
  double gstg = 0.0;
  double baseline = 0.0;
  for (const SimView& s : sims) {
    gstg += s.gstg.total_cycles;
    baseline += s.baseline.total_cycles;
  }
  report.add("sim_frame_kcycles", gstg / static_cast<double>(sims.size()) / 1e3, "kcycles");
  report.add("sim_speedup_vs_baseline", baseline / gstg, "x");
}

void add_sim_layers(Report& report, const std::vector<SimView>& sims) {
  const double n = static_cast<double>(sims.size());
  const auto mean = [&](auto field) {
    double sum = 0.0;
    for (const SimView& s : sims) sum += field(s);
    return sum / n;
  };
  for (const bool is_gstg : {true, false}) {
    const std::string p = is_gstg ? "sim.gstg." : "sim.baseline.";
    const auto rep = [is_gstg](const SimView& s) -> const gstg::SimReport& {
      return is_gstg ? s.gstg : s.baseline;
    };
    report.add(p + "pm_kcycles", mean([&](const SimView& s) { return rep(s).pm_cycles; }) / 1e3,
               "kcycles");
    if (is_gstg) {
      // The baseline design has no bitmask generator; its BGM time is 0.
      report.add(p + "bgm_kcycles",
                 mean([&](const SimView& s) { return rep(s).bgm_cycles; }) / 1e3, "kcycles");
    }
    report.add(p + "sort_stage_kcycles",
               mean([&](const SimView& s) { return rep(s).sort_stage_cycles; }) / 1e3, "kcycles");
    report.add(p + "rm_kcycles", mean([&](const SimView& s) { return rep(s).rm_cycles; }) / 1e3,
               "kcycles");
    report.add(p + "dram_kcycles",
               mean([&](const SimView& s) { return rep(s).dram_cycles; }) / 1e3, "kcycles");
    report.add(p + "dram_mb",
               mean([&](const SimView& s) { return static_cast<double>(rep(s).dram_bytes); }) / 1e6,
               "MB");
    if (is_gstg) {
      report.add(
          p + "spill_kb",
          mean([&](const SimView& s) { return static_cast<double>(rep(s).spill_bytes); }) / 1e3,
          "kB");
    }
  }
  std::vector<double> extract;
  std::vector<double> simulate;
  for (const SimView& s : sims) {
    extract.insert(extract.end(), std::begin(s.extract_ms), std::end(s.extract_ms));
    simulate.insert(simulate.end(), std::begin(s.simulate_ms), std::end(s.simulate_ms));
  }
  report.add("sim.extract_ms", median(extract), "ms");
  report.add("sim.simulate_ms", median(simulate), "ms");
}

StagedSamples staged_pass(const gstg::GsTgConfig& config, const gstg::GaussianCloud& cloud,
                          const std::vector<gstg::Camera>& cameras, double budget_s,
                          Trace& trace, Outcome& out) {
  const gstg::Renderer renderer(config);
  const gstg::RenderConfig rc = config.render_config();
  gstg::FrameContext ctx;
  StagedGstg staged;
  StagedSamples s;
  const auto start = Clock::now();
  for (std::size_t i = 0; i < cameras.size(); ++i) {
    if (s.views >= 10 && ms_between(start, Clock::now()) >= budget_s * 1000.0) break;
    const gstg::Camera& camera = cameras[i];
    const auto op = static_cast<std::int64_t>(i);

    auto t0 = Clock::now();
    renderer.render(cloud, camera, ctx);
    s.gstg_ms.push_back(ms_between(t0, Clock::now()));
    t0 = Clock::now();
    const gstg::RenderResult baseline = gstg::render_baseline(cloud, camera, rc);
    s.baseline_ms.push_back(ms_between(t0, Clock::now()));

    t0 = Clock::now();
    staged_gstg(config, cloud, camera, staged, trace, op);
    s.staged_ms.push_back(ms_between(t0, Clock::now()));
    const gstg::RenderResult staged_base = staged_baseline(rc, cloud, camera, trace, op);

    if (!images_identical(staged.image, ctx.image)) {
      out.mismatch("staged GS-TG frame differs from Renderer::render");
    }
    if (!images_identical(staged_base.image, baseline.image)) {
      out.mismatch("staged baseline frame differs from render_baseline");
    }
    if (!images_identical(ctx.image, baseline.image)) {
      out.mismatch("lossless gate: GS-TG and baseline images differ");
    }
    s.gstg.merge(staged.counters);
    s.baseline.merge(staged_base.counters);
    s.mask_hits += staged.mask_hits;
    ++s.views;
  }
  return s;
}

void add_render_core_layers(Report& report, const Trace& trace, const StagedSamples& s) {
  const double views = static_cast<double>(s.views);
  const auto per_view = [&](std::size_t total) { return static_cast<double>(total) / views; };
  const auto ratio = [](double num, double den) { return den > 0.0 ? num / den : 0.0; };
  const gstg::RenderCounters& b = s.baseline;
  const gstg::RenderCounters& g = s.gstg;

  report.add("render.preprocess_ms", trace.median_ms("render.preprocess"), "ms");
  report.add("render.tile_bin_ms", trace.median_ms("render.tile_bin"), "ms");
  report.add("render.tile_sort_ms", trace.median_ms("render.tile_sort"), "ms");
  report.add("render.tile_raster_ms", trace.median_ms("render.tile_raster"), "ms");
  report.add("render.tile_pairs", per_view(b.tile_pairs), "count");
  report.add("render.boundary_tests", per_view(b.boundary_tests), "count");
  report.add("render.alpha_evals", per_view(b.alpha_computations), "count");
  report.add("render.blend_ops", per_view(b.blend_ops), "count");
  report.add("render.blend_per_alpha",
             ratio(static_cast<double>(b.blend_ops), static_cast<double>(b.alpha_computations)),
             "ratio");

  report.add("core.group_bin_ms", trace.median_ms("core.group_bin"), "ms");
  report.add("core.bitmask_ms", trace.median_ms("core.bitmask"), "ms");
  report.add("core.group_sort_ms", trace.median_ms("core.group_sort"), "ms");
  report.add("core.raster_ms", trace.median_ms("core.raster"), "ms");
  report.add("core.sort_pairs", per_view(g.sort_pairs), "count");
  report.add("core.sort_pair_reduction",
             ratio(static_cast<double>(b.sort_pairs), static_cast<double>(g.sort_pairs)), "x");
  report.add("core.bitmask_tests", per_view(g.bitmask_tests), "count");
  report.add("core.mask_hit_ratio",
             ratio(static_cast<double>(s.mask_hits), static_cast<double>(g.bitmask_tests)),
             "ratio");
  report.add("core.filter_checks", per_view(g.filter_checks), "count");
  report.add("core.filter_pass_ratio",
             ratio(static_cast<double>(s.mask_hits), static_cast<double>(g.filter_checks)),
             "ratio");
  report.add("core.cpu_speedup_vs_baseline", median_paired_ratio(s.baseline_ms, s.gstg_ms), "x");
  report.add("core.trace_overhead", median_paired_ratio(s.staged_ms, s.gstg_ms) - 1.0, "ratio");
}

}  // namespace perfbench
