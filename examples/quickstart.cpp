// Quickstart: build a small synthetic scene, render it with the baseline
// tile pipeline and with GS-TG, verify the images are bit-identical (the
// paper's lossless claim), and compare the work both pipelines did.
//
// Run:  ./quickstart [--out=quickstart.ppm]
#include <cstdio>

#include "common/cli.h"
#include "common/table.h"
#include "core/pipeline.h"
#include "scene/scene.h"

int main(int argc, char** argv) {
  using namespace gstg;
  try {
    const CliArgs args(argc, argv);
    args.require_known({"out", "scene"});

    // A reduced-scale synthetic stand-in for the paper's "train" scene.
    const std::string scene_name = args.get("scene", "train");
    const Scene scene = generate_scene(scene_name, RunScale{8, 128});
    std::printf("scene '%s' (%s): %zu Gaussians at %dx%d\n", scene.info.name.c_str(),
                scene.info.dataset.c_str(), scene.cloud.size(), scene.render_width,
                scene.render_height);

    // GS-TG: sorting shared across a 64x64 group, rasterization per 16x16
    // tile through per-Gaussian bitmasks (defaults: 16+64, Ellipse+Ellipse,
    // plus any GSTG_* mode knobs set in the environment).
    const GsTgConfig gstg_config = resolve_from_env(GsTgConfig{});
    const RenderResult ours = render_gstg(scene.cloud, scene.camera, gstg_config);

    // Baseline: per-tile sorting + per-tile rasterization of the same 16x16
    // Ellipse tiles.
    const RenderResult baseline =
        render_baseline(scene.cloud, scene.camera, gstg_config.render_config());

    const float diff = max_abs_diff(baseline.image, ours.image);
    std::printf("\nlossless check: max |baseline - GS-TG| = %g  (%s)\n",
                static_cast<double>(diff), diff == 0.0f ? "bit-exact" : "MISMATCH");

    TextTable table("Baseline vs GS-TG (one frame)");
    table.set_header({"metric", "baseline", "GS-TG"});
    table.add_row({"sorted (cell,splat) pairs", std::to_string(baseline.counters.sort_pairs),
                   std::to_string(ours.counters.sort_pairs)});
    table.add_row({"identification tests", std::to_string(baseline.counters.boundary_tests),
                   std::to_string(ours.counters.boundary_tests)});
    table.add_row({"bitmask tests", "-", std::to_string(ours.counters.bitmask_tests)});
    table.add_row({"alpha computations", std::to_string(baseline.counters.alpha_computations),
                   std::to_string(ours.counters.alpha_computations)});
    table.add_row({"preprocess ms", format_fixed(baseline.times.preprocess_ms, 2),
                   format_fixed(ours.times.preprocess_ms, 2)});
    table.add_row({"bitmask ms", "-", format_fixed(ours.times.bitmask_ms, 2)});
    table.add_row({"sort ms", format_fixed(baseline.times.sort_ms, 2),
                   format_fixed(ours.times.sort_ms, 2)});
    table.add_row({"raster ms", format_fixed(baseline.times.raster_ms, 2),
                   format_fixed(ours.times.raster_ms, 2)});
    table.add_row({"total ms", format_fixed(baseline.times.total_ms(), 2),
                   format_fixed(ours.times.total_ms(), 2)});
    std::printf("\n");
    table.print();

    const std::string out = args.get("out", "quickstart.ppm");
    ours.image.write_ppm(out);
    std::printf("\nwrote %s\n", out.c_str());
    return diff == 0.0f ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
