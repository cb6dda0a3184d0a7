// bench_temporal: frame-sequence driver for the temporal renderer. Renders
// a guided-tour sampling (move legs + hold frames) of the orbit and
// flythrough camera paths per scene, in kOff and kReuse modes, audits the
// reuse with kVerify plus per-frame bit-identity against the one-shot
// renderer, and writes BENCH_temporal.json — the reuse-rate / sorts-avoided
// trajectory CI archives and gates (scripts/check_bench.py --temporal).
//
// Like run_all, this only needs the project libraries, so it
// always builds. A verify mismatch or an image divergence exits with code 2
// so CI's bench step goes red.
//
// Run:  ./bench_temporal [--out-dir=.] [--scenes=train,truck] [--threads=N]
//                        [--hold=2] [--move=2]
#include <cstdio>
#include <string>
#include <vector>

#include "common.h"
#include "common/cli.h"
#include "common/runconfig.h"
#include "common/table.h"
#include "core/pipeline.h"
#include "json_writer.h"
#include "render/framebuffer.h"
#include "temporal/camera_path.h"
#include "temporal/temporal_renderer.h"

namespace {

using namespace gstg;
using benchutil::JsonWriter;
using benchutil::cached_scene;

}  // namespace

int main(int argc, char** argv) {
  try {
    const CliArgs args(argc, argv);
    args.require_known({"out-dir", "scenes", "threads", "hold", "move"});
    const std::string out_dir = args.get("out-dir", ".");
    const int hold = args.get_int("hold", 2);
    const int move = args.get_int("move", 2);
    GsTgConfig base_config;
    base_config.threads = args.get_size("threads", 0);
    const std::vector<std::string> scenes = benchutil::requested_scenes(args);

    benchutil::print_scale_banner("bench_temporal: cross-frame group-sort reuse");

    bool correctness_ok = true;
    JsonWriter json(out_dir + "/BENCH_temporal.json");
    json.open_object();
    json.value("bench", "temporal_reuse");
    const RunScale scale = run_scale_from_env();
    json.open_object("scale");
    json.value("resolution_divisor", scale.resolution_divisor);
    json.value("gaussian_divisor", scale.gaussian_divisor);
    json.close_object();
    json.value("hold_frames", hold);
    json.value("move_frames", move);
    json.open_array("scenes");

    TextTable table("temporal reuse (tour sampling: hold " + std::to_string(hold) + ", move " +
                    std::to_string(move) + ")");
    table.set_header({"scene", "path", "frames", "reuse rate", "sorts avoided",
                      "volume reduction", "exact"});

    for (const std::string& name : scenes) {
      const Scene& scene = cached_scene(name);
      std::printf("bench_temporal: %s (%zu gaussians, %dx%d)\n", name.c_str(),
                  scene.cloud.size(), scene.render_width, scene.render_height);

      json.open_object();
      json.value("scene", name);
      json.value("gaussians", scene.cloud.size());
      json.open_array("paths");

      const CameraPath paths[] = {orbit_path(scene, 0.25f, 4), flythrough_path(scene)};
      for (const CameraPath& path : paths) {
        const FrameSequence sequence = tour_frames(path, move, hold);
        const std::string kind = &path == &paths[0] ? "orbit" : "flythrough";

        GsTgConfig off = base_config;
        off.temporal = TemporalMode::kOff;
        GsTgConfig reuse = base_config;
        reuse.temporal = TemporalMode::kReuse;
        GsTgConfig verify = base_config;
        verify.temporal = TemporalMode::kVerify;

        // Each mode's images are diffed against the kOff reference and
        // dropped immediately, bounding peak memory to two sequences (at
        // paper scale a sequence of framebuffers runs into the hundreds of
        // megabytes).
        const TemporalSequenceResult r_off = render_sequence(scene.cloud, sequence, off);
        const auto identical_to_off = [&](std::vector<Framebuffer>& images) {
          bool same = true;
          for (std::size_t f = 0; f < sequence.frame_count(); ++f) {
            same = same && max_abs_diff(r_off.images[f], images[f]) == 0.0f;
          }
          images.clear();
          images.shrink_to_fit();
          return same;
        };
        TemporalSequenceResult r_reuse = render_sequence(scene.cloud, sequence, reuse);
        bool identical = identical_to_off(r_reuse.images);
        TemporalSequenceResult r_verify = render_sequence(scene.cloud, sequence, verify);
        identical = identical_to_off(r_verify.images) && identical;
        const bool verify_ok = r_verify.total_stats.verify_mismatches == 0;
        if (!identical || !verify_ok) {
          correctness_ok = false;
          std::fprintf(stderr, "bench_temporal: REUSE DIVERGENCE on %s/%s (%s)\n", name.c_str(),
                       kind.c_str(), !verify_ok ? "verify mismatch" : "image diff");
        }

        const TemporalStats& stats = r_reuse.total_stats;
        const double volume_off = r_off.total_counters.sort_comparison_volume;
        const double volume_reuse = r_reuse.total_counters.sort_comparison_volume;
        const double volume_reduction = volume_reuse > 0.0 ? volume_off / volume_reuse : 0.0;
        table.add_row({name, kind, std::to_string(sequence.frame_count()),
                       format_fixed(100.0 * stats.reuse_rate(), 1) + "%",
                       format_fixed(100.0 * stats.sorts_avoided_ratio(), 1) + "%",
                       format_fixed(volume_reduction, 2) + "x",
                       identical && verify_ok ? "yes" : "NO"});

        json.open_object();
        json.value("path", kind);
        json.value("frames", sequence.frame_count());
        json.value("groups_total", stats.groups_total);
        json.value("groups_trivial", stats.groups_trivial);
        json.value("groups_reused", stats.groups_reused);
        json.value("groups_patched", stats.groups_patched);
        json.value("groups_resorted", stats.groups_resorted);
        json.value("groups_evicted", stats.groups_evicted);
        json.value("pairs_reused", stats.pairs_reused);
        json.value("pairs_sorted", stats.pairs_sorted);
        json.value("reuse_rate", stats.reuse_rate());
        json.value("sorts_avoided", stats.sorts_avoided_ratio());
        json.value("sort_volume_off", volume_off);
        json.value("sort_volume_reuse", volume_reuse);
        json.value("sort_volume_reduction", volume_reduction);
        json.value("wall_ms_off", r_off.wall_ms);
        json.value("wall_ms_reuse", r_reuse.wall_ms);
        json.value_bool("verify_ok", verify_ok);
        json.value_bool("identical_to_off", identical);
        json.close_object();
      }
      json.close_array();
      json.close_object();
    }
    json.close_array();
    json.value("peak_rss_bytes", benchutil::peak_rss_bytes());
    json.close_object();
    json.finish();
    table.print();
    std::printf("bench_temporal: wrote %s/BENCH_temporal.json\n", out_dir.c_str());
    // A reuse divergence is a correctness regression: fail the driver so
    // CI's bench step goes red.
    return correctness_ok ? 0 : 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_temporal: %s\n", e.what());
    return 1;
  }
}
