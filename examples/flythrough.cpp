// Renders a camera path through a scene with the temporal GS-TG renderer
// and reports per-frame timing plus cross-frame sort-reuse statistics — the
// frame-sequence workload an AR/VR consumer of the library runs.
//
// Run:  ./flythrough [--scene=playroom] [--frames=8] [--path=orbit|flythrough]
//                    [--hold=0] [--temporal=off|reuse|verify] [--out-prefix=fly]
//
// --hold=N switches to tour sampling: N identical frames at every keyframe
// with --frames interpolated frames between — the stop-and-look profile
// where cross-frame sort reuse pays.
#include <cstdio>

#include "common/cli.h"
#include "common/stats.h"
#include "common/table.h"
#include "scene/scene.h"
#include "sim/sequence.h"
#include "temporal/camera_path.h"
#include "temporal/temporal_renderer.h"

int main(int argc, char** argv) {
  using namespace gstg;
  try {
    const CliArgs args(argc, argv);
    args.require_known({"scene", "frames", "path", "hold", "temporal", "out-prefix"});
    const Scene scene = generate_scene(args.get("scene", "playroom"), RunScale{8, 64});
    const int frames = args.get_int("frames", 8);
    const int hold = args.get_int("hold", 0);
    const std::string path_kind = args.get("path", "orbit");
    if (path_kind != "orbit" && path_kind != "flythrough") {
      throw std::invalid_argument("--path must be orbit or flythrough (got '" + path_kind + "')");
    }
    // Uniform sampling walks an open orbit (N distinct poses on the
    // circle); tour sampling instead holds at the waypoints of a quarter
    // orbit, like bench_temporal.
    const CameraPath path = path_kind == "flythrough" ? flythrough_path(scene)
                            : hold > 0               ? orbit_path(scene, 0.25f, 4)
                                                     : open_orbit_path(scene, frames);
    const FrameSequence sequence =
        hold > 0 ? tour_frames(path, frames, hold) : path.frames(frames);

    GsTgConfig config;  // 16+64, Ellipse+Ellipse
    const std::string mode = args.get("temporal", "reuse");
    if (mode != "off" && mode != "reuse" && mode != "verify") {
      throw std::invalid_argument("--temporal must be off, reuse or verify (got '" + mode + "')");
    }
    config.temporal = mode == "off"      ? TemporalMode::kOff
                      : mode == "verify" ? TemporalMode::kVerify
                                         : TemporalMode::kReuse;
    config = resolve_from_env(config);

    // Report the mode that actually runs (GSTG_TEMPORAL overrides the flag).
    std::printf("rendering '%s' along %s (%zu Gaussians), %zu frames at %dx%d, temporal=%s\n\n",
                scene.info.name.c_str(), sequence.name.c_str(), scene.cloud.size(),
                sequence.frame_count(), scene.render_width, scene.render_height,
                to_string(config.temporal));

    // Frames are only retained when they are going to be written out.
    const TemporalSequenceResult result =
        render_sequence(scene.cloud, sequence, config, args.has("out-prefix"));

    RunningStat frame_ms;
    RunningStat visible;
    TextTable table("per-frame profile (GS-TG 16+64, temporal sort reuse)");
    table.set_header({"frame", "visible", "sort pairs", "reused groups", "total ms"});
    for (std::size_t i = 0; i < sequence.frame_count(); ++i) {
      frame_ms.add(result.times[i].total_ms());
      visible.add(static_cast<double>(result.counters[i].visible_gaussians));
      table.add_row({std::to_string(i),
                     std::to_string(result.counters[i].visible_gaussians),
                     std::to_string(result.counters[i].sort_pairs),
                     std::to_string(result.frame_stats[i].groups_reused +
                                    result.frame_stats[i].groups_patched),
                     format_fixed(result.times[i].total_ms(), 2)});
      if (args.has("out-prefix")) {
        result.images[i].write_ppm(args.get("out-prefix", "fly") + "_" + std::to_string(i) +
                                   ".ppm");
      }
    }
    table.print();

    const TemporalStats& stats = result.total_stats;
    std::printf("\nmean frame: %.2f ms (%.1f FPS on this CPU), visible %.0f +- %.0f\n",
                frame_ms.mean(), 1000.0 / frame_ms.mean(), visible.mean(), visible.stddev());
    std::printf("temporal reuse: %.1f%% of groups, %.1f%% of sort pairs avoided "
                "(%zu reused / %zu patched / %zu resorted groups)\n",
                100.0 * stats.reuse_rate(), 100.0 * stats.sorts_avoided_ratio(),
                stats.groups_reused, stats.groups_patched, stats.groups_resorted);

    // Sustained-throughput estimate on the GS-TG accelerator: parameters
    // are DRAM-resident after frame 0, so later frames are cheaper.
    const HwConfig hw;
    const SequenceReport sim = simulate_gstg_sequence(scene.cloud, sequence.views(), config, hw,
                                                      scene.info.name);
    std::printf("accelerator estimate: %.0f sustained FPS at 1 GHz, %.2f uJ/frame "
                "(frame0 dram %.2f MB, steady %.2f MB, sort-pair stability %.2f)\n",
                sim.sustained_fps, sim.energy_per_frame_j * 1e6,
                static_cast<double>(sim.frames.front().dram_bytes) / 1e6,
                static_cast<double>(sim.frames.back().dram_bytes) / 1e6,
                sim.sort_pair_stability);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
