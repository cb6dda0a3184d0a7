// Multi-camera flythrough through the batch API: renders an orbit of poses
// with render_batch (view-level parallelism, one reused FrameContext per
// view worker), cross-checks bit-identity against the sequential loop, and
// reports the wall-clock payoff — the serving path of a multi-user
// deployment.
//
// Run:  ./batch_flythrough [--scene=playroom] [--frames=8] [--path=orbit|flythrough]
//                          [--view-threads=0] [--out-prefix=batch]
#include <cstdio>

#include "common/cli.h"
#include "common/table.h"
#include "common/timer.h"
#include "core/pipeline.h"
#include "core/renderer.h"
#include "render/framebuffer.h"
#include "scene/scene.h"
#include "temporal/camera_path.h"

int main(int argc, char** argv) {
  using namespace gstg;
  try {
    const CliArgs args(argc, argv);
    args.require_known({"scene", "frames", "path", "view-threads", "out-prefix"});
    const Scene scene = generate_scene(args.get("scene", "playroom"), RunScale{8, 64});
    const int frames = args.get_int("frames", 8);
    const std::string path_kind = args.get("path", "orbit");
    if (path_kind != "orbit" && path_kind != "flythrough") {
      throw std::invalid_argument("--path must be orbit or flythrough (got '" + path_kind + "')");
    }
    const CameraPath path =
        path_kind == "flythrough" ? flythrough_path(scene) : open_orbit_path(scene, frames);
    const auto cameras = path.frames(frames).cameras;

    std::printf("batch-rendering '%s' along %s (%zu Gaussians), %d views at %dx%d\n\n",
                scene.info.name.c_str(), path.name().c_str(), scene.cloud.size(), frames,
                scene.render_width, scene.render_height);

    GsTgConfig config = resolve_from_env(GsTgConfig{});  // 16+64, Ellipse+Ellipse
    config.threads = 1;  // parallelism comes from the view level below
    BatchOptions options;
    options.view_threads = args.get_size("view-threads", 0);

    // Sequential reference: the same views through one-shot render_gstg.
    Timer timer;
    std::vector<RenderResult> sequential;
    sequential.reserve(cameras.size());
    for (const Camera& camera : cameras) {
      sequential.push_back(render_gstg(scene.cloud, camera, config));
    }
    const double sequential_ms = timer.lap_ms();

    const BatchRenderResult batch = render_batch(scene.cloud, cameras, config, options);

    TextTable table("per-view profile (render_batch)");
    table.set_header({"view", "visible", "sort pairs", "frame ms", "identical"});
    bool all_identical = true;
    for (std::size_t v = 0; v < cameras.size(); ++v) {
      const bool same = max_abs_diff(sequential[v].image, batch.images[v]) == 0.0f;
      all_identical = all_identical && same;
      table.add_row({std::to_string(v),
                     std::to_string(batch.counters[v].visible_gaussians),
                     std::to_string(batch.counters[v].sort_pairs),
                     format_fixed(batch.times[v].total_ms(), 2), same ? "yes" : "NO"});
      if (args.has("out-prefix")) {
        batch.images[v].write_ppm(args.get("out-prefix", "batch") + "_" + std::to_string(v) +
                                  ".ppm");
      }
    }
    table.print();

    std::printf("\nsequential loop: %.2f ms | render_batch: %.2f ms | speedup %.2fx\n",
                sequential_ms, batch.wall_ms,
                batch.wall_ms > 0.0 ? sequential_ms / batch.wall_ms : 0.0);
    std::printf("batch output %s the sequential renders\n",
                all_identical ? "is bit-identical to" : "DIFFERS from");
    return all_identical ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
