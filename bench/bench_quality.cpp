// bench_quality: the sort-cost-vs-quality frontier of the sortless pipeline.
// For every bench scene it renders the exact pipeline, the sortless pipeline
// (order-independent transmittance blending, zero group-sort pairs) and the
// kVerify audit, then reports what the sortless tier buys (sort pairs
// avoided, sort_ms removed) against what it costs (raster_ms delta,
// PSNR/SSIM vs the exact image). CI archives and gates BENCH_quality.json
// (scripts/check_bench.py --quality).
//
// Gates (exit 2 on failure, so CI's bench step goes red):
//  - quality: every scene's sortless PSNR/SSIM meets its committed floor
//    (render/quality.h) and the sortless run reports zero sort pairs;
//  - verify: the kVerify run ships an image bit-identical to pure kSortless,
//    its counters match, and its self-measured quality equals the one
//    measured here against the exact image.
// On a quality failure the worst-PSNR scene's exact/sortless pair is dumped
// as PPM into --out-dir (CI uploads them as the quality-diff artifact).
//
// Run:  ./bench_quality [--out-dir=.] [--scenes=train,truck] [--threads=N]
//                       [--repeat=3]
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "common.h"
#include "common/cli.h"
#include "common/runconfig.h"
#include "common/table.h"
#include "common/timer.h"
#include "core/pipeline.h"
#include "json_writer.h"
#include "render/framebuffer.h"
#include "render/quality.h"
#include "render/rasterize.h"

namespace {

using namespace gstg;
using benchutil::JsonWriter;
using benchutil::cached_scene;

struct PipelineRun {
  RenderResult result;
  StageTimes best;  ///< per-stage minima across repeats
};

PipelineRun run_pipeline(const Scene& scene, GsTgConfig config, PipelineMode mode, int repeat) {
  config.pipeline = mode;
  PipelineRun r{render_gstg(scene.cloud, scene.camera, config), {}};
  r.best.sort_ms = r.result.times.sort_ms;
  r.best.raster_ms = r.result.times.raster_ms;
  for (int i = 1; i < repeat; ++i) {
    RenderResult result = render_gstg(scene.cloud, scene.camera, config);
    r.best.sort_ms = std::min(r.best.sort_ms, result.times.sort_ms);
    r.best.raster_ms = std::min(r.best.raster_ms, result.times.raster_ms);
    r.result = std::move(result);
  }
  return r;
}

std::string format_db(double psnr) {
  return std::isinf(psnr) ? std::string("inf") : format_fixed(psnr, 2);
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const CliArgs args(argc, argv);
    args.require_known({"out-dir", "scenes", "threads", "repeat"});
    const std::string out_dir = args.get("out-dir", ".");
    const int repeat = args.get_int("repeat", 3);
    const std::size_t threads = args.get_size("threads", 0);
    const std::vector<std::string> scenes = benchutil::requested_scenes(args);

    benchutil::print_scale_banner("bench_quality: sortless pipeline sort-cost-vs-quality frontier");

    GsTgConfig config;
    config.threads = threads;

    bool quality_ok = true;
    bool verify_ok = true;
    double worst_psnr = 1e300;
    std::string worst_scene;
    Framebuffer worst_exact{1, 1};
    Framebuffer worst_sortless{1, 1};

    JsonWriter json(out_dir + "/BENCH_quality.json");
    json.open_object();
    json.value("bench", "sortless_quality");
    const RunScale scale = run_scale_from_env();
    json.open_object("scale");
    json.value("resolution_divisor", scale.resolution_divisor);
    json.value("gaussian_divisor", scale.gaussian_divisor);
    json.close_object();
    json.value("depth_beta", kSortlessDepthBeta);
    json.open_array("scenes");

    TextTable table("sortless frontier (depth beta " + format_fixed(kSortlessDepthBeta, 1) + ")");
    table.set_header({"scene", "psnr dB", "floor", "ssim", "floor", "pairs avoided", "sort ms",
                      "raster ms Δ", "ok"});

    for (const std::string& name : scenes) {
      const Scene& scene = cached_scene(name);
      std::printf("bench_quality: %s (%zu gaussians, %dx%d)\n", name.c_str(), scene.cloud.size(),
                  scene.render_width, scene.render_height);

      const PipelineRun exact = run_pipeline(scene, config, PipelineMode::kExact, repeat);
      const PipelineRun sortless = run_pipeline(scene, config, PipelineMode::kSortless, repeat);
      const PipelineRun verify = run_pipeline(scene, config, PipelineMode::kVerify, 1);

      // Quality gate: the sortless image against the committed floor, and
      // the structural claim that the sortless path never sorts.
      const ImageQuality q = image_quality(exact.result.image, sortless.result.image);
      const QualityFloor floor = quality_floor(name);
      const bool no_sort = sortless.result.counters.sort_pairs == 0 &&
                           sortless.result.counters.sort_comparison_volume == 0.0;
      const bool scene_quality_ok = meets_floor(q, floor) && no_sort;
      if (!no_sort) {
        std::fprintf(stderr, "bench_quality: %s sortless run SORTED (%zu pairs)\n", name.c_str(),
                     sortless.result.counters.sort_pairs);
      }
      if (!meets_floor(q, floor)) {
        std::fprintf(stderr,
                     "bench_quality: %s below floor (psnr %.2f < %.2f or ssim %.4f < %.4f)\n",
                     name.c_str(), q.psnr, floor.min_psnr, q.ssim, floor.min_ssim);
      }

      // Verify gate: kVerify ships the sortless image (bit-identical, same
      // counters) and its self-measured quality matches the audit here —
      // i.e. its internal exact reference matched our exact render.
      const bool scene_verify_ok =
          max_abs_diff(verify.result.image, sortless.result.image) == 0.0f &&
          verify.result.counters.sort_pairs == sortless.result.counters.sort_pairs &&
          verify.result.counters.alpha_computations ==
              sortless.result.counters.alpha_computations &&
          verify.result.counters.blend_ops == sortless.result.counters.blend_ops &&
          verify.result.quality.measured && verify.result.quality.psnr == q.psnr &&
          verify.result.quality.ssim == q.ssim;
      if (!scene_verify_ok) {
        std::fprintf(stderr, "bench_quality: %s kVerify DIVERGED from pure kSortless\n",
                     name.c_str());
      }

      quality_ok = quality_ok && scene_quality_ok;
      verify_ok = verify_ok && scene_verify_ok;
      if (q.psnr < worst_psnr) {
        worst_psnr = q.psnr;
        worst_scene = name;
        worst_exact = exact.result.image;
        worst_sortless = sortless.result.image;
      }

      // The frontier: what the sortless tier saves vs what it costs.
      const std::size_t pairs_avoided = exact.result.counters.sort_pairs;
      const double sort_ms_removed = exact.best.sort_ms;
      const double raster_ms_delta = sortless.best.raster_ms - exact.best.raster_ms;

      table.add_row({name, format_db(q.psnr), format_fixed(floor.min_psnr, 1),
                     format_fixed(q.ssim, 4), format_fixed(floor.min_ssim, 2),
                     std::to_string(pairs_avoided), format_fixed(sort_ms_removed, 2),
                     format_fixed(raster_ms_delta, 2),
                     scene_quality_ok && scene_verify_ok ? "yes" : "NO"});

      json.open_object();
      json.value("scene", name);
      json.value("gaussians", scene.cloud.size());
      json.value("visible_gaussians", exact.result.counters.visible_gaussians);
      json.value("psnr", q.psnr);
      json.value("ssim", q.ssim);
      json.value("floor_psnr", floor.min_psnr);
      json.value("floor_ssim", floor.min_ssim);
      json.value("sort_pairs_avoided", pairs_avoided);
      json.value("sort_comparison_volume_avoided", exact.result.counters.sort_comparison_volume);
      json.value("sortless_sort_pairs", sortless.result.counters.sort_pairs);
      json.value("sortless_blend_ops", sortless.result.counters.blend_ops);
      json.value("exact_blend_ops", exact.result.counters.blend_ops);
      json.value("sort_ms_removed", sort_ms_removed);
      json.value("raster_ms_exact", exact.best.raster_ms);
      json.value("raster_ms_sortless", sortless.best.raster_ms);
      json.value("raster_ms_delta", raster_ms_delta);
      json.value_bool("quality_ok", scene_quality_ok);
      json.value_bool("verify_ok", scene_verify_ok);
      json.close_object();
    }
    json.close_array();
    json.value_bool("quality_ok", quality_ok);
    json.value_bool("verify_ok", verify_ok);
    json.value("peak_rss_bytes", benchutil::peak_rss_bytes());
    json.close_object();
    json.finish();
    table.print();
    std::printf("bench_quality: wrote %s/BENCH_quality.json\n", out_dir.c_str());

    if (!quality_ok && !worst_scene.empty()) {
      // Debug artifact for the CI quality-diff upload: the worst pair as PPM
      // so a floor regression is inspectable without rerunning locally.
      const std::string exact_path = out_dir + "/quality_exact_" + worst_scene + ".ppm";
      const std::string sortless_path = out_dir + "/quality_sortless_" + worst_scene + ".ppm";
      worst_exact.write_ppm(exact_path);
      worst_sortless.write_ppm(sortless_path);
      std::fprintf(stderr, "bench_quality: dumped worst pair (%s, psnr %.2f) to %s and %s\n",
                   worst_scene.c_str(), worst_psnr, exact_path.c_str(), sortless_path.c_str());
    }
    // A floor miss is a quality regression and a verify divergence is a
    // correctness regression: fail the driver so CI's bench step goes red.
    return quality_ok && verify_ok ? 0 : 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_quality: %s\n", e.what());
    return 1;
  }
}
