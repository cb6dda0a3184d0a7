// bench_dataset: real-scene ingestion + compressed-residency trajectory.
// Loads the committed mini-dataset fixtures (COLMAP binary/text,
// transforms.json) through the format-sniffing load_scene entry point,
// round-trips every bench scene through a PLY checkpoint to time the
// loader on realistic cloud sizes, then measures the fp16 resident form:
// encode cost, resident bytes vs the float32 SoA, the streamed
// decode-on-touch render vs the up-front-decode render, and the
// ResidencyMode::kVerify audit. Writes BENCH_dataset.json — the record CI
// archives and gates (scripts/check_bench.py --dataset).
//
// Like run_all, this only needs the project libraries,
// so it always builds. A verify failure, a streamed/up-front image
// divergence, or the compression gate (resident bytes must be at least 2x
// smaller than float32) exits with code 2 so CI's bench step goes red.
//
// Run:  ./bench_dataset [--out-dir=.] [--scenes=train,truck] [--repeat=3]
//                       [--threads=N] [--data-dir=tests/data]
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "common.h"
#include "common/cli.h"
#include "common/runconfig.h"
#include "common/table.h"
#include "core/renderer.h"
#include "dataset/load_scene.h"
#include "gaussian/compressed.h"
#include "gaussian/ply_io.h"
#include "json_writer.h"
#include "render/framebuffer.h"

#ifndef GSTG_DATASET_FIXTURE_DIR
#define GSTG_DATASET_FIXTURE_DIR "tests/data"
#endif

namespace {

using namespace gstg;
using benchutil::JsonWriter;
using benchutil::best_ms_of;
using benchutil::cached_scene;

/// The residency bar: the fp16 form must make the resident Gaussian state
/// at least this many times smaller than the float32 SoA, on every scene.
constexpr double kCompressionGate = 2.0;

/// The committed loader fixtures, one per on-disk serialisation. Paths are
/// relative to --data-dir (default: the source-tree tests/data).
struct Fixture {
  const char* name;
  const char* relative_path;
  const char* expected_source;
};

constexpr Fixture kFixtures[] = {
    {"colmap_binary", "colmap_mini/sparse/0", "colmap-binary"},
    {"colmap_text", "colmap_mini_text", "colmap-text"},
    {"transforms", "transforms_mini.json", "transforms"},
};

GsTgConfig config_with(ResidencyMode residency, std::size_t threads) {
  GsTgConfig config;
  config.threads = threads;
  config.residency = residency;
  return config;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const CliArgs args(argc, argv);
    args.require_known({"out-dir", "scenes", "repeat", "threads", "data-dir"});
    const std::string out_dir = args.get("out-dir", ".");
    const int repeat = args.get_int("repeat", 3);
    const std::size_t threads = args.get_size("threads", 0);
    const std::string data_dir = args.get("data-dir", GSTG_DATASET_FIXTURE_DIR);
    const std::vector<std::string> scenes = benchutil::requested_scenes(args);

    benchutil::print_scale_banner("bench_dataset: scene ingestion + compressed residency");

    bool fixtures_ok = true;
    bool compression_ok = true;
    bool verify_ok = true;

    JsonWriter json(out_dir + "/BENCH_dataset.json");
    json.open_object();
    json.value("bench", "dataset_residency");
    const RunScale scale = run_scale_from_env();
    json.open_object("scale");
    json.value("resolution_divisor", scale.resolution_divisor);
    json.value("gaussian_divisor", scale.gaussian_divisor);
    json.close_object();

    // --- Loader fixtures: every serialisation through load_scene. -------
    json.open_array("fixtures");
    for (const Fixture& fixture : kFixtures) {
      const std::string path = data_dir + "/" + fixture.relative_path;
      LoadedScene loaded = load_scene(path);  // throws on any parse failure
      if (loaded.source != fixture.expected_source) {
        fixtures_ok = false;
        std::fprintf(stderr, "bench_dataset: %s sniffed as '%s', want '%s'\n", fixture.name,
                     loaded.source.c_str(), fixture.expected_source);
      }
      const double load_ms = best_ms_of(repeat, [&] { loaded = load_scene(path); });
      std::printf("bench_dataset: fixture %s (%s, %zu gaussians, %zu cameras) %.3f ms\n",
                  fixture.name, loaded.source.c_str(), loaded.cloud.size(),
                  loaded.cameras.size(), load_ms);
      json.open_object();
      json.value("name", std::string(fixture.name));
      json.value("source", loaded.source);
      json.value("gaussians", loaded.cloud.size());
      json.value("cameras", loaded.cameras.size());
      json.value("load_ms", load_ms);
      json.close_object();
    }
    json.close_array();

    // --- Bench scenes: PLY ingestion + residency A/B. -------------------
    json.open_array("scenes");
    TextTable table("dataset ingestion + fp16 residency (threads " +
                    (threads == 0 ? std::string("auto") : std::to_string(threads)) + ")");
    table.set_header({"scene", "gaussians", "load ms", "encode ms", "resident", "ratio",
                      "fp32 ms", "fp16 ms", "overhead", "verify"});

    for (const std::string& name : scenes) {
      const Scene& scene = cached_scene(name);
      std::printf("bench_dataset: %s (%zu gaussians, %dx%d)\n", name.c_str(),
                  scene.cloud.size(), scene.render_width, scene.render_height);

      // Checkpoint round-trip: the loader timed on a realistic cloud. The
      // read must reproduce the written cloud exactly (PLY stores the same
      // float32 parameters), so the timed loads also audit the round-trip.
      const std::string ply_path =
          (std::filesystem::temp_directory_path() / ("gstg_bench_" + name + ".ply")).string();
      write_gaussian_ply_file(ply_path, scene.cloud);
      const std::size_t ply_bytes = std::filesystem::file_size(ply_path);
      LoadedScene loaded = load_scene(ply_path);
      const double load_ms = best_ms_of(repeat, [&] { loaded = load_scene(ply_path); });
      std::filesystem::remove(ply_path);
      if (loaded.source != "ply" || loaded.cloud.size() != scene.cloud.size() ||
          loaded.cloud.positions() != scene.cloud.positions() ||
          loaded.cloud.sh_data() != scene.cloud.sh_data()) {
        fixtures_ok = false;
        std::fprintf(stderr, "bench_dataset: PLY ROUND-TRIP MISMATCH on %s\n", name.c_str());
      }

      // Resident-form footprint and the compression gate.
      CompressedCloud compressed = CompressedCloud::encode(scene.cloud);
      const double encode_ms =
          best_ms_of(repeat, [&] { compressed = CompressedCloud::encode(scene.cloud); });
      const std::size_t resident = compressed.resident_bytes();
      const std::size_t float32 = compressed.float32_bytes();
      const double ratio =
          resident > 0 ? static_cast<double>(float32) / static_cast<double>(resident) : 0.0;
      if (ratio < kCompressionGate) {
        compression_ok = false;
        std::fprintf(stderr, "bench_dataset: compression gate FAILED on %s (%.2fx < %.1fx)\n",
                     name.c_str(), ratio, kCompressionGate);
      }

      // Residency A/B: up-front decode vs streamed decode-on-touch, then
      // the in-process kVerify audit. The streamed image must be
      // bit-identical to the up-front image — that is the exactness
      // contract, not a tolerance.
      const Renderer upfront(config_with(ResidencyMode::kFloat32, threads));
      const Renderer streamed(config_with(ResidencyMode::kCompressed, threads));
      FrameContext upfront_ctx, streamed_ctx;
      const double float32_ms =
          best_ms_of(repeat, [&] { upfront.render(compressed, scene.camera, upfront_ctx); });
      const double compressed_ms =
          best_ms_of(repeat, [&] { streamed.render(compressed, scene.camera, streamed_ctx); });
      const double overhead = float32_ms > 0.0 ? compressed_ms / float32_ms : 0.0;

      bool scene_verify_ok =
          max_abs_diff(upfront_ctx.image, streamed_ctx.image) == 0.0f;
      if (!scene_verify_ok) {
        std::fprintf(stderr, "bench_dataset: STREAMED/UP-FRONT DIVERGENCE on %s\n", name.c_str());
      }
      try {
        FrameContext verify_ctx;
        Renderer(config_with(ResidencyMode::kVerify, threads))
            .render(compressed, scene.camera, verify_ctx);
      } catch (const ResidencyError& e) {
        scene_verify_ok = false;
        std::fprintf(stderr, "bench_dataset: kVerify FAILED on %s: %s\n", name.c_str(), e.what());
      }
      if (!scene_verify_ok) verify_ok = false;

      table.add_row({name, std::to_string(scene.cloud.size()), format_fixed(load_ms, 2),
                     format_fixed(encode_ms, 2), std::to_string(resident),
                     format_fixed(ratio, 2) + "x", format_fixed(float32_ms, 2),
                     format_fixed(compressed_ms, 2), format_fixed(overhead, 2) + "x",
                     scene_verify_ok ? "yes" : "NO"});

      json.open_object();
      json.value("scene", name);
      json.value("gaussians", scene.cloud.size());
      json.value("sh_degree", scene.cloud.sh_degree());
      json.value("ply_bytes", ply_bytes);
      json.value("load_ms", load_ms);
      json.value("encode_ms", encode_ms);
      json.value("resident_bytes", resident);
      json.value("float32_bytes", float32);
      json.value("compression_ratio", ratio);
      json.value("float32_render_ms", float32_ms);
      json.value("compressed_render_ms", compressed_ms);
      json.value("decode_overhead", overhead);
      json.value_bool("verify_ok", scene_verify_ok);
      json.close_object();
    }
    json.close_array();
    json.value_bool("fixtures_ok", fixtures_ok);
    json.value_bool("compression_ok", compression_ok);
    json.value_bool("verify_ok", verify_ok);
    json.value("peak_rss_bytes", benchutil::peak_rss_bytes());
    json.close_object();
    json.finish();
    table.print();
    std::printf("bench_dataset: wrote %s/BENCH_dataset.json\n", out_dir.c_str());
    // A fixture mis-sniff, a round-trip mismatch, a verify failure or a
    // compression shortfall is a correctness regression, not a perf data
    // point: fail the driver so CI's bench step goes red.
    return fixtures_ok && compression_ok && verify_ok ? 0 : 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_dataset: %s\n", e.what());
    return 1;
  }
}
