// bench_binning: flat vs hierarchical binning A/B over the bench scenes.
// For every scene and boundary test it bins the preprocessed splats with
// both strategies, audits bit-identity (canonical per-cell (depth, index)
// order, the same comparison BinningMode::kVerify applies), and writes
// BENCH_binning.json — the boundary-test reduction trajectory CI archives
// and gates (scripts/check_bench.py --binning).
//
// Like run_all and bench_temporal, this only needs the project libraries,
// so it always builds. An identity or kVerify failure — or the reduction
// gate going negative on the largest scene — exits with code 2 so CI's
// bench step goes red.
//
// Run:  ./bench_binning [--out-dir=.] [--scenes=train,truck] [--threads=N]
//                       [--repeat=3] [--tile=16]
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "common.h"
#include "common/cli.h"
#include "common/runconfig.h"
#include "common/table.h"
#include "common/timer.h"
#include "json_writer.h"
#include "render/binning.h"
#include "render/preprocess.h"
#include "render/sort_keys.h"

namespace {

using namespace gstg;
using benchutil::JsonWriter;
using benchutil::cached_scene;
using benchutil::split_csv;

/// The reduction bar on the largest scene: hierarchical must cut boundary
/// tests by at least this fraction vs flat under the default (Ellipse)
/// boundary, or the driver exits 2.
constexpr double kReductionGate = 0.20;

/// Canonical per-cell (depth, index) sort — the comparison kVerify uses —
/// so the two strategies' nondeterministic within-cell orders compare equal
/// exactly when the hit multisets are equal.
void canonicalize(BinnedSplats& bins, std::span<const ProjectedSplat> splats) {
  const auto less = [&](std::uint32_t a, std::uint32_t b) {
    const std::uint64_t ka = pack_depth_index_key(splats[a].depth, splats[a].index);
    const std::uint64_t kb = pack_depth_index_key(splats[b].depth, splats[b].index);
    return ka != kb ? ka < kb : a < b;
  };
  for (int c = 0; c < bins.grid.cell_count(); ++c) {
    std::sort(bins.splat_ids.begin() + bins.offsets[c],
              bins.splat_ids.begin() + bins.offsets[c + 1], less);
  }
}

struct ModeRun {
  RenderCounters counters;
  BinnedSplats bins;
  double best_ms = 1e300;
};

ModeRun run_mode(std::span<const ProjectedSplat> splats, const CellGrid& grid, Boundary boundary,
                 std::size_t threads, BinningMode mode, int repeat) {
  ModeRun r;
  BinningScratch scratch;
  for (int i = 0; i < std::max(1, repeat); ++i) {
    RenderCounters counters;
    Timer timer;
    bin_splats_into(splats, grid, boundary, threads, counters, r.bins, scratch, mode);
    r.best_ms = std::min(r.best_ms, timer.lap_ms());
    r.counters = counters;
  }
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const CliArgs args(argc, argv);
    args.require_known({"out-dir", "scenes", "threads", "repeat", "tile"});
    const std::string out_dir = args.get("out-dir", ".");
    const int repeat = args.get_int("repeat", 3);
    const int tile = args.get_int("tile", 16);
    const std::size_t threads = args.get_size("threads", 0);
    std::vector<std::string> scenes = split_csv(args.get("scenes", ""));
    if (scenes.empty()) scenes = benchutil::algo_scene_names();

    benchutil::print_scale_banner("bench_binning: flat vs hierarchical coarse-to-fine binning");

    bool correctness_ok = true;
    bool reduction_ok = true;
    std::size_t largest_gaussians = 0;
    std::string largest_scene;
    for (const std::string& name : scenes) {
      const std::size_t n = cached_scene(name).cloud.size();
      if (n > largest_gaussians) {
        largest_gaussians = n;
        largest_scene = name;
      }
    }

    JsonWriter json(out_dir + "/BENCH_binning.json");
    json.open_object();
    json.value("bench", "binning_hierarchy");
    const RunScale scale = run_scale_from_env();
    json.open_object("scale");
    json.value("resolution_divisor", scale.resolution_divisor);
    json.value("gaussian_divisor", scale.gaussian_divisor);
    json.close_object();
    json.value("tile_size", tile);
    json.value("coarse_factor", kCoarseCellFactor);
    json.value("largest_scene", largest_scene);
    json.open_array("scenes");

    TextTable table("binning boundary-test reduction (tile " + std::to_string(tile) + ", coarse x" +
                    std::to_string(kCoarseCellFactor) + ")");
    table.set_header({"scene", "boundary", "tile pairs", "tests flat", "tests hier", "reduction",
                      "exact"});

    for (const std::string& name : scenes) {
      const Scene& scene = cached_scene(name);
      RenderConfig pre_config;
      pre_config.tile_size = tile;
      RenderCounters pre_counters;
      const std::vector<ProjectedSplat> splats =
          preprocess(scene.cloud, scene.camera, pre_config, pre_counters);
      const CellGrid grid =
          CellGrid::over_image(scene.camera.width(), scene.camera.height(), tile);
      std::printf("bench_binning: %s (%zu gaussians, %zu visible, %dx%d, %d cells)\n",
                  name.c_str(), scene.cloud.size(), splats.size(), scene.render_width,
                  scene.render_height, grid.cell_count());

      json.open_object();
      json.value("scene", name);
      json.value("gaussians", scene.cloud.size());
      json.value("visible_gaussians", splats.size());
      json.value("cells", grid.cell_count());
      json.open_array("boundaries");

      for (const Boundary b : {Boundary::kAabb, Boundary::kObb, Boundary::kEllipse}) {
        ModeRun flat = run_mode(splats, grid, b, threads, BinningMode::kFlat, repeat);
        ModeRun hier = run_mode(splats, grid, b, threads, BinningMode::kHierarchical, repeat);

        canonicalize(flat.bins, splats);
        canonicalize(hier.bins, splats);
        const bool identical = flat.bins.offsets == hier.bins.offsets &&
                               flat.bins.splat_ids == hier.bins.splat_ids;
        bool verify_ok = true;
        try {
          RenderCounters cv;
          BinnedSplats out;
          BinningScratch scratch;
          bin_splats_into(splats, grid, b, threads, cv, out, scratch, BinningMode::kVerify);
        } catch (const BinningError& e) {
          verify_ok = false;
          std::fprintf(stderr, "bench_binning: kVerify FAILED on %s/%s: %s\n", name.c_str(),
                       to_string(b), e.what());
        }
        if (!identical || !verify_ok) {
          correctness_ok = false;
          if (!identical) {
            std::fprintf(stderr, "bench_binning: HIERARCHICAL DIVERGENCE on %s/%s\n",
                         name.c_str(), to_string(b));
          }
        }

        const double tests_flat = static_cast<double>(flat.counters.boundary_tests);
        const double tests_hier = static_cast<double>(hier.counters.boundary_tests);
        const double reduction = tests_flat > 0.0 ? 1.0 - tests_hier / tests_flat : 0.0;
        if (name == largest_scene && b == Boundary::kEllipse && reduction < kReductionGate) {
          reduction_ok = false;
          std::fprintf(stderr,
                       "bench_binning: reduction gate FAILED on %s/Ellipse (%.1f%% < %.0f%%)\n",
                       name.c_str(), 100.0 * reduction, 100.0 * kReductionGate);
        }

        table.add_row({name, to_string(b), std::to_string(flat.counters.tile_pairs),
                       std::to_string(flat.counters.boundary_tests),
                       std::to_string(hier.counters.boundary_tests),
                       format_fixed(100.0 * reduction, 1) + "%",
                       identical && verify_ok ? "yes" : "NO"});

        json.open_object();
        json.value("boundary", to_string(b));
        json.value("tile_pairs", flat.counters.tile_pairs);
        json.value("boundary_tests_flat", flat.counters.boundary_tests);
        json.value("boundary_tests_hier", hier.counters.boundary_tests);
        json.value("coarse_pairs", hier.counters.coarse_pairs);
        json.value("splats_multi_tile", flat.counters.splats_multi_tile);
        json.value("test_reduction", reduction);
        json.value("flat_ms", flat.best_ms);
        json.value("hier_ms", hier.best_ms);
        json.value_bool("identical", identical);
        json.value_bool("verify_ok", verify_ok);
        json.close_object();
      }
      json.close_array();
      json.close_object();
    }
    json.close_array();
    json.value_bool("reduction_ok", reduction_ok);
    json.value("peak_rss_bytes", benchutil::peak_rss_bytes());
    json.close_object();
    json.finish();
    table.print();
    std::printf("bench_binning: wrote %s/BENCH_binning.json\n", out_dir.c_str());
    // A flat/hierarchical divergence is a correctness regression, and the
    // reduction bar on the largest scene is the tentpole's acceptance
    // signal: fail the driver so CI's bench step goes red.
    return correctness_ok && reduction_ok ? 0 : 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_binning: %s\n", e.what());
    return 1;
  }
}
