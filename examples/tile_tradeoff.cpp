// Explores the paper's central trade-off (section III) on one scene: larger
// tiles cut preprocessing + sorting but inflate rasterization, smaller
// tiles do the opposite — and GS-TG takes both winners at once.
//
// Run:  ./tile_tradeoff [--scene=train]
#include <cstdio>

#include "common/cli.h"
#include "common/table.h"
#include "core/pipeline.h"
#include "scene/scene.h"

int main(int argc, char** argv) {
  using namespace gstg;
  try {
    const CliArgs args(argc, argv);
    args.require_known({"scene"});
    const Scene scene = generate_scene(args.get("scene", "train"), RunScale{8, 64});
    std::printf("scene '%s': %zu Gaussians at %dx%d\n\n", scene.info.name.c_str(),
                scene.cloud.size(), scene.render_width, scene.render_height);

    TextTable table("tile-size trade-off (Ellipse boundary)");
    table.set_header({"config", "cells/Gauss", "Gauss/pixel", "pre ms", "sort ms", "raster ms",
                      "total ms"});

    const GsTgConfig gstg = resolve_from_env(GsTgConfig{});  // 16+64, Ellipse+Ellipse
    for (const int tile : {8, 16, 32, 64}) {
      RenderConfig config = gstg.render_config();
      config.tile_size = tile;
      const RenderResult r = render_baseline(scene.cloud, scene.camera, config);
      table.add_row({"baseline " + std::to_string(tile) + "x" + std::to_string(tile),
                     format_fixed(r.counters.tiles_per_gaussian(), 2),
                     format_fixed(r.counters.gaussians_per_pixel(), 1),
                     format_fixed(r.times.preprocess_ms, 2), format_fixed(r.times.sort_ms, 2),
                     format_fixed(r.times.raster_ms, 2), format_fixed(r.times.total_ms(), 2)});
    }

    const RenderResult g = render_gstg(scene.cloud, scene.camera, gstg);
    table.add_row({"GS-TG 16+64",
                   format_fixed(g.counters.tiles_per_gaussian(), 2),  // group-level
                   format_fixed(g.counters.gaussians_per_pixel(), 1),
                   format_fixed(g.times.preprocess_ms + g.times.bitmask_ms, 2),
                   format_fixed(g.times.sort_ms, 2), format_fixed(g.times.raster_ms, 2),
                   format_fixed(g.times.total_ms(), 2)});
    table.print();

    std::printf(
        "\nGS-TG sorts at 64x64 granularity (few cells per Gaussian) while\n"
        "rasterizing 16x16 tiles (few Gaussians per pixel) — both sides of\n"
        "the trade-off at once. 'cells/Gauss' for GS-TG counts 64x64 groups.\n");
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
