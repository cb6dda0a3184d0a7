// bench_telemetry: what the telemetry layer costs and that it changes
// nothing. Renders a fixed scene single-threaded (machine-independent span
// counts) with tracing off and on, best-of-repeats on the instrumented
// stages (sort + raster), then exports the trace and validates its shape.
// CI archives and gates BENCH_telemetry.json (scripts/check_bench.py
// --telemetry) and keeps the exported trace as an artifact.
//
// Gates (exit 2 on failure, so CI's bench step goes red):
//  - overhead: best-of traced sort_ms + raster_ms within the committed
//    limit (3%) of the untraced best — the "leave the spans in" bar;
//  - dropped: the run fits the rings, zero events dropped;
//  - determinism: image and counters bit-identical with tracing on;
//  - structure: the exported trace carries spans for every pipeline stage
//    (preprocess, binning, sort_groups, bitmask, raster).
//
// Run:  ./bench_telemetry [--out-dir=.] [--scene=train] [--frames=16]
//                         [--repeat=5]
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common.h"
#include "common/cli.h"
#include "common/runconfig.h"
#include "core/renderer.h"
#include "json_writer.h"
#include "render/framebuffer.h"
#include "telemetry/trace.h"

namespace {

using namespace gstg;
using benchutil::JsonWriter;
using benchutil::cached_scene;

constexpr double kOverheadLimit = 0.03;  // the acceptance bar: < 3% on sort+raster

/// Sum of the per-frame best-of sort+raster across `frames` renders,
/// minimised over `repeat` passes (per-stage minima, like the other bench
/// drivers, so the JSON carries the least-noisy sample).
double timed_pass(const Renderer& renderer, const GaussianCloud& cloud, const Camera& camera,
                  FrameContext& ctx, int frames, int repeat) {
  double best = 0.0;
  for (int r = 0; r < repeat; ++r) {
    double total = 0.0;
    for (int f = 0; f < frames; ++f) {
      renderer.render(cloud, camera, ctx);
      total += ctx.times.sort_ms + ctx.times.raster_ms;
    }
    if (r == 0 || total < best) best = total;
  }
  return best;
}

bool counters_equal(const RenderCounters& a, const RenderCounters& b) {
  return a.visible_gaussians == b.visible_gaussians && a.tile_pairs == b.tile_pairs &&
         a.sort_pairs == b.sort_pairs && a.bitmask_tests == b.bitmask_tests &&
         a.filter_checks == b.filter_checks && a.alpha_computations == b.alpha_computations &&
         a.blend_ops == b.blend_ops && a.total_pixels == b.total_pixels;
}

std::size_t count_occurrences(const std::string& haystack, const std::string& needle) {
  std::size_t count = 0;
  for (std::string::size_type at = haystack.find(needle); at != std::string::npos;
       at = haystack.find(needle, at + needle.size())) {
    ++count;
  }
  return count;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const CliArgs args(argc, argv);
    args.require_known({"out-dir", "scene", "frames", "repeat"});
    const std::string out_dir = args.get("out-dir", ".");
    const std::string scene_name = args.get("scene", "train");
    const int frames = args.get_int("frames", 16);
    const int repeat = args.get_int("repeat", 5);
    if (frames < 1 || repeat < 1) throw std::invalid_argument("--frames/--repeat must be >= 1");

    benchutil::print_scale_banner("bench_telemetry: tracing overhead + trace structure");

    const Scene& scene = cached_scene(scene_name);
    GsTgConfig config;
    config.threads = 1;  // one ring, deterministic span counts
    const Renderer renderer(config);
    FrameContext ctx;

    // Tracing OFF (stop explicitly: GSTG_TRACE in the environment would
    // otherwise autostart the collector and skew the plain pass).
    telemetry::TraceSession::global().stop();
    renderer.render(scene.cloud, scene.camera, ctx);  // warm buffers
    renderer.render(scene.cloud, scene.camera, ctx);
    const double plain_ms =
        timed_pass(renderer, scene.cloud, scene.camera, ctx, frames, repeat);
    const Framebuffer plain_image = ctx.image;
    const RenderCounters plain_counters = ctx.counters;

    // Tracing ON: one session covers every traced frame, so the recorded
    // event count is a pure function of (scale, frames, repeat).
    telemetry::TraceOptions options;
    options.process_name = "bench_telemetry";
    telemetry::TraceSession::global().start(options);
    const double traced_ms =
        timed_pass(renderer, scene.cloud, scene.camera, ctx, frames, repeat);
    telemetry::TraceSession::global().stop();
    const telemetry::TraceStats stats = telemetry::TraceSession::global().stats();

    const bool deterministic = max_abs_diff(plain_image, ctx.image) == 0.0f &&
                               counters_equal(plain_counters, ctx.counters);
    const bool dropped_ok = stats.dropped == 0;
    // Raw ratio: negative when the traced pass happened to run faster.
    const double overhead_ratio = plain_ms > 0.0 ? traced_ms / plain_ms - 1.0 : 0.0;
    const bool overhead_ok = overhead_ratio < kOverheadLimit;

    // Export and validate the trace's structure: every pipeline stage must
    // appear as matched B spans on the one render thread.
    const std::string trace_path = out_dir + "/BENCH_telemetry_trace.json";
    const std::size_t written = telemetry::TraceSession::global().write(trace_path);
    std::string trace_json;
    {
      std::ifstream in(trace_path, std::ios::binary);
      std::ostringstream buf;
      buf << in.rdbuf();
      trace_json = buf.str();
    }
    const char* kStages[] = {"preprocess", "binning", "sort_groups", "bitmask", "raster"};
    bool stage_spans_ok = true;
    std::vector<std::pair<std::string, std::size_t>> stage_counts;
    for (const char* stage : kStages) {
      const std::size_t n = count_occurrences(
          trace_json, "\"name\": \"" + std::string(stage) + "\", \"ph\": \"B\"");
      stage_counts.emplace_back(stage, n);
      if (n == 0) stage_spans_ok = false;
    }

    std::printf("sort+raster best-of-%d over %d frames: %.3f ms plain, %.3f ms traced "
                "(%+.2f%%, limit %.0f%%) -> %s\n",
                repeat, frames, plain_ms, traced_ms, 100.0 * overhead_ratio,
                100.0 * kOverheadLimit, overhead_ok ? "ok" : "OVER");
    std::printf("events: %zu recorded, %zu dropped | trace: %zu events -> %s\n",
                stats.recorded, stats.dropped, written, trace_path.c_str());
    std::printf("determinism (image+counters traced vs plain): %s\n",
                deterministic ? "bit-identical" : "DIVERGED");

    JsonWriter json(out_dir + "/BENCH_telemetry.json");
    json.open_object();
    json.value("bench", std::string("telemetry_overhead"));
    const RunScale scale = run_scale_from_env();
    json.open_object("scale");
    json.value("resolution_divisor", scale.resolution_divisor);
    json.value("gaussian_divisor", scale.gaussian_divisor);
    json.close_object();
    json.value("scene", scene_name);
    json.value("frames", frames);
    json.value("repeat", repeat);
    json.value("plain_sort_raster_ms", plain_ms);
    json.value("traced_sort_raster_ms", traced_ms);
    json.value("overhead_ratio", overhead_ratio);
    json.value("overhead_limit", kOverheadLimit);
    json.value_bool("overhead_ok", overhead_ok);
    json.value("events_recorded", stats.recorded);
    json.value("events_dropped", stats.dropped);
    json.value_bool("dropped_ok", dropped_ok);
    json.value_bool("deterministic", deterministic);
    json.value("trace_events_written", written);
    json.open_object("stage_spans");
    for (const auto& [stage, n] : stage_counts) json.value(stage, n);
    json.close_object();
    json.value_bool("stage_spans_ok", stage_spans_ok);
    json.value("peak_rss_bytes", benchutil::peak_rss_bytes());
    json.close_object();
    json.finish();
    std::printf("bench_telemetry: wrote %s/BENCH_telemetry.json\n", out_dir.c_str());

    if (!(overhead_ok && dropped_ok && deterministic && stage_spans_ok)) {
      std::fprintf(stderr, "bench_telemetry: GATE FAILURE\n");
      return 2;
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_telemetry: error: %s\n", e.what());
    return 1;
  }
}
