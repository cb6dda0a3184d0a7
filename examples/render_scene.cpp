// Renders one of the six evaluation scenes (synthetic recipe, or a real
// 3D-GS checkpoint via --ply=...) with either pipeline and prints the
// stage/counter profile.
//
// Run:  ./render_scene --scene=truck --pipeline=gstg --tile=16 --group=64
//       [--boundary=ellipse --mask=ellipse --ply=ckpt.ply --fp16 --out=frame.ppm]
#include <cstdio>
#include <stdexcept>
#include <string>

#include "common/cli.h"
#include "common/table.h"
#include "core/pipeline.h"
#include "gaussian/ply_io.h"
#include "gaussian/quantize.h"
#include "scene/scene.h"

namespace {

gstg::Boundary parse_boundary(const std::string& name) {
  if (name == "aabb") return gstg::Boundary::kAabb;
  if (name == "obb") return gstg::Boundary::kObb;
  if (name == "ellipse") return gstg::Boundary::kEllipse;
  throw std::invalid_argument("unknown boundary '" + name + "' (aabb|obb|ellipse)");
}

}  // namespace

int main(int argc, char** argv) {
  using namespace gstg;
  try {
    const CliArgs args(argc, argv);
    args.require_known({"scene", "ply", "pipeline", "tile", "group", "boundary", "mask", "out",
                        "fp16", "threads"});

    const int tile = args.get_int("tile", 16);
    const int group = args.get_int("group", 64);
    const Boundary boundary = parse_boundary(args.get("boundary", "ellipse"));
    const Boundary mask = parse_boundary(args.get("mask", args.get("boundary", "ellipse")));
    const std::string pipeline = args.get("pipeline", "gstg");

    // Scene: synthetic recipe by default, real checkpoint with --ply.
    Scene scene = generate_scene(args.get("scene", "train"));
    if (args.has("ply")) {
      scene.cloud = read_gaussian_ply_file(args.get("ply", ""));
      std::printf("loaded %zu Gaussians from %s\n", scene.cloud.size(),
                  args.get("ply", "").c_str());
    }
    if (args.has("fp16")) {
      const QuantizeReport q = quantize_cloud_to_fp16(scene.cloud);
      std::printf("fp16 quantisation: max position err %.3g, max SH err %.3g\n",
                  static_cast<double>(q.max_position_error),
                  static_cast<double>(q.max_sh_error));
    }

    const GsTgConfig env_config = resolve_from_env(GsTgConfig{});  // GSTG_* mode knobs
    RenderResult result = [&] {
      if (pipeline == "baseline") {
        RenderConfig config = env_config.render_config();
        config.tile_size = tile;
        config.boundary = boundary;
        config.threads = args.get_size("threads", 0);
        return render_baseline(scene.cloud, scene.camera, config);
      }
      if (pipeline == "gstg") {
        GsTgConfig config = env_config;
        config.tile_size = tile;
        config.group_size = group;
        config.group_boundary = boundary;
        config.mask_boundary = mask;
        config.threads = args.get_size("threads", 0);
        return render_gstg(scene.cloud, scene.camera, config);
      }
      throw std::invalid_argument("unknown pipeline '" + pipeline + "' (baseline|gstg)");
    }();

    TextTable stages("stage profile: " + pipeline + " @ " + scene.info.name);
    stages.set_header({"stage", "ms"});
    stages.add_row({"preprocess (+ident)", format_fixed(result.times.preprocess_ms, 2)});
    if (pipeline == "gstg") {
      stages.add_row({"bitmask generation", format_fixed(result.times.bitmask_ms, 2)});
    }
    stages.add_row({"sorting", format_fixed(result.times.sort_ms, 2)});
    stages.add_row({"rasterization", format_fixed(result.times.raster_ms, 2)});
    stages.add_row({"total", format_fixed(result.times.total_ms(), 2)});
    stages.print();

    const RenderCounters& c = result.counters;
    TextTable counters("work counters");
    counters.set_header({"counter", "value"});
    counters.add_row({"input Gaussians", std::to_string(c.input_gaussians)});
    counters.add_row({"visible Gaussians", std::to_string(c.visible_gaussians)});
    counters.add_row({"cells per Gaussian", format_fixed(c.tiles_per_gaussian(), 2)});
    counters.add_row({"shared-with-neighbours %", format_fixed(c.shared_gaussian_percent(), 1)});
    counters.add_row({"Gaussians per pixel", format_fixed(c.gaussians_per_pixel(), 1)});
    counters.add_row({"sorted pairs", std::to_string(c.sort_pairs)});
    counters.add_row({"alpha computations", std::to_string(c.alpha_computations)});
    counters.add_row({"blend operations", std::to_string(c.blend_ops)});
    counters.print();

    if (args.has("out")) {
      result.image.write_ppm(args.get("out", "frame.ppm"));
      std::printf("wrote %s\n", args.get("out", "frame.ppm").c_str());
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
