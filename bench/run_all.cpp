// run_all: one driver for the whole perf trajectory. Renders every requested
// scene with the baseline tile pipeline and with GS-TG (16+64, Ellipse),
// verifies the lossless claim on the way, optionally runs the three-design
// hardware simulation, and writes machine-readable BENCH_*.json files that
// CI archives so regressions are visible across PRs.
//
// Run:  ./run_all [--out-dir=.] [--repeat=3] [--scenes=train,truck]
//                 [--skip-sim] [--threads=N]
//
// Outputs:
//   BENCH_software.json  per-scene stage times + work counters, both pipelines
//   BENCH_hardware.json  per-scene cycles/fps/energy for baseline/GSCore/GS-TG
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <stdexcept>
#include <string>
#include <vector>

#include "common.h"
#include "common/cli.h"
#include "common/runconfig.h"
#include "common/timer.h"
#include "core/pipeline.h"
#include "core/renderer.h"
#include "gaussian/compressed.h"
#include "json_writer.h"
#include "render/binning.h"
#include "render/framebuffer.h"
#include "render/preprocess.h"
#include "render/simd_kernels.h"
#include "sim_runner.h"

namespace {

using namespace gstg;
using benchutil::JsonWriter;
using benchutil::best_ms_of;
using benchutil::cached_scene;

void write_header(JsonWriter& json, const char* kind) {
  const RunScale scale = run_scale_from_env();
  json.value("bench", kind);
  const std::time_t now = std::time(nullptr);
  char stamp[32];
  std::strftime(stamp, sizeof(stamp), "%Y-%m-%dT%H:%M:%SZ", std::gmtime(&now));
  json.value("timestamp_utc", stamp);
  json.open_object("scale");
  json.value("resolution_divisor", scale.resolution_divisor);
  json.value("gaussian_divisor", scale.gaussian_divisor);
  json.close_object();
}

void write_counters(JsonWriter& json, const RenderCounters& c) {
  json.value("visible_gaussians", c.visible_gaussians);
  json.value("tile_pairs", c.tile_pairs);
  json.value("sort_pairs", c.sort_pairs);
  json.value("sort_comparison_volume", c.sort_comparison_volume);
  json.value("alpha_computations", c.alpha_computations);
  json.value("blend_ops", c.blend_ops);
  json.value("bitmask_tests", c.bitmask_tests);
  json.value("filter_checks", c.filter_checks);
}

void write_times(JsonWriter& json, const StageTimes& t) {
  json.value("preprocess_ms", t.preprocess_ms);
  json.value("bitmask_ms", t.bitmask_ms);
  json.value("sort_ms", t.sort_ms);
  json.value("raster_ms", t.raster_ms);
  json.value("total_ms", t.total_ms());
}

/// Best-of-N render so the JSON carries the least-noisy timing sample.
template <typename RenderFn>
RenderResult best_of(int repeat, const RenderFn& render) {
  RenderResult best = render();
  for (int i = 1; i < repeat; ++i) {
    RenderResult r = render();
    if (r.times.total_ms() < best.times.total_ms()) best = std::move(r);
  }
  return best;
}

bool run_software(const std::vector<std::string>& scenes, int repeat, std::size_t threads,
                  const std::string& path) {
  bool lossless_ok = true;
  JsonWriter json(path);
  json.open_object();
  write_header(json, "software_pipelines");
  json.open_array("scenes");
  for (const std::string& name : scenes) {
    const Scene& scene = cached_scene(name);
    std::printf("run_all: %s (%zu gaussians, %dx%d)\n", name.c_str(), scene.cloud.size(),
                scene.render_width, scene.render_height);

    RenderConfig baseline_config;
    baseline_config.tile_size = 16;
    baseline_config.boundary = Boundary::kEllipse;
    baseline_config.threads = threads;
    const RenderResult baseline = best_of(repeat, [&] {
      return render_baseline(scene.cloud, scene.camera, baseline_config);
    });

    GsTgConfig gstg_config;  // 16+64, Ellipse+Ellipse: the paper's default
    gstg_config.threads = threads;
    const RenderResult gstg = best_of(repeat, [&] {
      return render_gstg(scene.cloud, scene.camera, gstg_config);
    });

    const float diff = max_abs_diff(baseline.image, gstg.image);
    if (diff != 0.0f) {
      lossless_ok = false;
      std::fprintf(stderr, "run_all: LOSSLESS VIOLATION on %s (max diff %g)\n", name.c_str(),
                   static_cast<double>(diff));
    }

    json.open_object();
    json.value("scene", name);
    json.value("gaussians", scene.cloud.size());
    json.value("width", scene.render_width);
    json.value("height", scene.render_height);
    json.value("lossless_max_abs_diff", static_cast<double>(diff));
    json.open_object("baseline");
    write_times(json, baseline.times);
    write_counters(json, baseline.counters);
    json.close_object();
    json.open_object("gstg");
    write_times(json, gstg.times);
    write_counters(json, gstg.counters);
    json.close_object();
    json.open_object("ratios");
    json.value("speedup_gpu_order",
               gstg.times.total_ms() > 0.0 ? baseline.times.total_ms() / gstg.times.total_ms()
                                           : 0.0);
    json.value("sort_pair_reduction",
               static_cast<double>(baseline.counters.sort_pairs) /
                   static_cast<double>(gstg.counters.sort_pairs ? gstg.counters.sort_pairs : 1));
    json.close_object();

    // Compressed residency A/B: the fp16 resident form halves the resident
    // Gaussian bytes, and the streamed decode-on-touch render must stay
    // bit-identical to the up-front decode (bench_dataset audits and gates
    // this in depth); this is the per-scene summary line.
    {
      const CompressedCloud compressed = CompressedCloud::encode(scene.cloud);
      GsTgConfig upfront_config;
      upfront_config.threads = threads;
      upfront_config.residency = ResidencyMode::kFloat32;
      GsTgConfig streamed_config = upfront_config;
      streamed_config.residency = ResidencyMode::kCompressed;
      const Renderer upfront(upfront_config);
      const Renderer streamed(streamed_config);
      FrameContext upfront_ctx, streamed_ctx;
      const double float32_ms = best_ms_of(repeat, [&] {
        upfront.render(compressed, scene.camera, upfront_ctx);
      });
      const double compressed_ms = best_ms_of(repeat, [&] {
        streamed.render(compressed, scene.camera, streamed_ctx);
      });
      const bool identical = max_abs_diff(upfront_ctx.image, streamed_ctx.image) == 0.0f;
      if (!identical) {
        lossless_ok = false;
        std::fprintf(stderr, "run_all: RESIDENCY MISMATCH on %s (streamed != up-front)\n",
                     name.c_str());
      }
      json.open_object("residency");
      json.value("resident_bytes", compressed.resident_bytes());
      json.value("float32_bytes", compressed.float32_bytes());
      json.value("compression_ratio",
                 compressed.resident_bytes() > 0
                     ? static_cast<double>(compressed.float32_bytes()) /
                           static_cast<double>(compressed.resident_bytes())
                     : 0.0);
      json.value("float32_render_ms", float32_ms);
      json.value("compressed_render_ms", compressed_ms);
      json.value_bool("identical_to_upfront", identical);
      json.close_object();
    }

    // Batched rendering over an orbit: bit-identity against the sequential
    // loop is part of the correctness gate; the wall-clock ratio is the
    // view-level-parallelism payoff.
    {
      const int views = 4;
      const auto cameras = orbit_cameras(scene, views);
      GsTgConfig batch_config;
      batch_config.threads = 1;  // parallelism across views, not inside frames
      double sequential_ms = 0.0;
      std::vector<RenderResult> sequential;
      sequential.reserve(cameras.size());
      {
        Timer timer;
        for (const Camera& camera : cameras) {
          sequential.push_back(render_gstg(scene.cloud, camera, batch_config));
        }
        sequential_ms = timer.lap_ms();
      }
      const BatchRenderResult batch = render_batch(scene.cloud, cameras, batch_config);
      bool identical = true;
      for (std::size_t v = 0; v < cameras.size(); ++v) {
        if (max_abs_diff(sequential[v].image, batch.images[v]) != 0.0f) identical = false;
      }
      if (!identical) {
        lossless_ok = false;
        std::fprintf(stderr, "run_all: BATCH MISMATCH on %s (batch != sequential)\n",
                     name.c_str());
      }
      json.open_object("batch");
      json.value("views", views);
      json.value("sequential_ms", sequential_ms);
      json.value("batch_wall_ms", batch.wall_ms);
      json.value("speedup", batch.wall_ms > 0.0 ? sequential_ms / batch.wall_ms : 0.0);
      json.value_bool("identical_to_sequential", identical);
      json.close_object();
    }

    // SIMD backend A/B: every available backend renders the GS-TG pipeline,
    // which must be bit-identical to the scalar backend (part of the
    // correctness gate); the widest-vs-scalar stage ratios are reported.
    {
      GsTgConfig scalar_config;
      scalar_config.threads = threads;
      scalar_config.simd = SimdPolicy{SimdBackend::kScalar};
      const RenderResult scalar_exact = best_of(repeat, [&] {
        return render_gstg(scene.cloud, scene.camera, scalar_config);
      });

      json.open_object("simd");
      json.value("widest", to_string(widest_verified_backend()));
      double widest_exact_raster = scalar_exact.times.raster_ms;
      double widest_exact_pre = scalar_exact.times.preprocess_ms;
      json.open_array("backends");
      for (const SimdBackend backend : available_simd_backends()) {
        GsTgConfig config;
        config.threads = threads;
        config.simd = SimdPolicy{backend};
        // The scalar/exact reference render doubles as that backend's sample.
        const RenderResult exact = backend == SimdBackend::kScalar
                                       ? scalar_exact
                                       : best_of(repeat, [&] {
                                           return render_gstg(scene.cloud, scene.camera, config);
                                         });

        const bool identical = max_abs_diff(scalar_exact.image, exact.image) == 0.0f;
        if (!identical) {
          lossless_ok = false;
          std::fprintf(stderr, "run_all: SIMD EXACT-MODE MISMATCH on %s (backend %s)\n",
                       name.c_str(), to_string(backend));
        }
        if (backend == widest_verified_backend()) {
          widest_exact_raster = exact.times.raster_ms;
          widest_exact_pre = exact.times.preprocess_ms;
        }

        json.open_object();
        json.value("backend", to_string(backend));
        json.value("lane_width", simd_kernels(backend).lane_width);
        json.value("exact_preprocess_ms", exact.times.preprocess_ms);
        json.value("exact_raster_ms", exact.times.raster_ms);
        json.value_bool("exact_identical_to_scalar", identical);
        json.close_object();
      }
      json.close_array();
      json.value("speedup_raster_exact_widest_vs_scalar",
                 widest_exact_raster > 0.0 ? scalar_exact.times.raster_ms / widest_exact_raster
                                           : 0.0);
      json.value("speedup_preprocess_exact_widest_vs_scalar",
                 widest_exact_pre > 0.0
                     ? scalar_exact.times.preprocess_ms / widest_exact_pre
                     : 0.0);
      json.close_object();
      std::printf(
          "run_all: %s simd widest=%s raster speedup %.2fx\n", name.c_str(),
          to_string(widest_verified_backend()),
          widest_exact_raster > 0.0 ? scalar_exact.times.raster_ms / widest_exact_raster : 0.0);
    }
    json.close_object();
  }
  json.close_array();
  json.value("peak_rss_bytes", benchutil::peak_rss_bytes());
  json.close_object();
  json.finish();
  std::printf("run_all: wrote %s\n", path.c_str());
  return lossless_ok;
}

void write_report(JsonWriter& json, const SimReport& r) {
  json.value("total_cycles", r.total_cycles);
  json.value("fps", r.fps);
  json.value("bottleneck", r.bottleneck);
  json.value("dram_bytes", r.dram_bytes);
  json.value("energy_j", r.energy.total_j());
  json.value("frames_per_joule", r.frames_per_joule());
}

void run_hardware(const std::vector<std::string>& scenes, const std::string& path) {
  JsonWriter json(path);
  json.open_object();
  write_header(json, "hardware_sim");
  json.open_array("scenes");
  for (const std::string& name : scenes) {
    std::printf("run_all: simulating %s (baseline / GSCore / GS-TG)\n", name.c_str());
    const benchutil::SceneSims sims = benchutil::simulate_scene(name);
    json.open_object();
    json.value("scene", name);
    json.open_object("baseline");
    write_report(json, sims.baseline);
    json.close_object();
    json.open_object("gscore");
    write_report(json, sims.gscore);
    json.close_object();
    json.open_object("gstg");
    write_report(json, sims.gstg);
    json.close_object();
    json.open_object("ratios");
    json.value("speedup_vs_baseline", sims.gstg.fps / (sims.baseline.fps > 0.0 ? sims.baseline.fps : 1.0));
    json.value("speedup_vs_gscore", sims.gstg.fps / (sims.gscore.fps > 0.0 ? sims.gscore.fps : 1.0));
    json.close_object();
    json.close_object();
  }
  json.close_array();
  json.value("peak_rss_bytes", benchutil::peak_rss_bytes());
  json.close_object();
  json.finish();
  std::printf("run_all: wrote %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const CliArgs args(argc, argv);
    args.require_known({"out-dir", "repeat", "scenes", "skip-sim", "threads"});
    const std::string out_dir = args.get("out-dir", ".");
    const int repeat = args.get_int("repeat", 3);
    const std::size_t threads = args.get_size("threads", 0);
    const std::vector<std::string> scenes = benchutil::requested_scenes(args);

    benchutil::print_scale_banner("run_all: software + hardware sweep");
    const bool lossless_ok =
        run_software(scenes, repeat, threads, out_dir + "/BENCH_software.json");
    if (!args.has("skip-sim")) {
      run_hardware(scenes, out_dir + "/BENCH_hardware.json");
    }
    // A lossless violation is a correctness regression, not a perf data
    // point: fail the driver so CI's bench step goes red.
    return lossless_ok ? 0 : 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "run_all: %s\n", e.what());
    return 1;
  }
}
