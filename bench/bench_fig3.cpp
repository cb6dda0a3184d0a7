// Fig. 3: per-stage runtime breakdown (preprocessing, sorting,
// rasterization) across tile sizes 8/16/32/64 for four scenes, with (a)
// AABB and (b) Ellipse boundaries. Absolute times are CPU-scale (the paper
// profiles an A6000); the *shape* — preprocessing/sorting shrink with tile
// size while rasterization grows — is the reproduced result.
#include <benchmark/benchmark.h>

#include <array>
#include <cstdio>
#include <map>

#include "common.h"
#include "common/table.h"
#include "core/pipeline.h"

namespace {

using namespace gstg;
using benchutil::algo_scene_names;
using benchutil::cached_scene;

constexpr std::array<int, 4> kTileSizes = {8, 16, 32, 64};

std::map<std::string, std::map<std::string, std::map<int, StageTimes>>> g_times;

void run_case(benchmark::State& state, const std::string& scene_name, int tile,
              Boundary boundary) {
  const Scene& scene = cached_scene(scene_name);
  RenderConfig config;
  config.tile_size = tile;
  config.boundary = boundary;
  StageTimes times;
  for (auto _ : state) {
    const RenderResult r = render_baseline(scene.cloud, scene.camera, config);
    benchmark::DoNotOptimize(r.counters.alpha_computations);
    times = r.times;
  }
  g_times[to_string(boundary)][scene_name][tile] = times;
  state.counters["pre_ms"] = times.preprocess_ms;
  state.counters["sort_ms"] = times.sort_ms;
  state.counters["raster_ms"] = times.raster_ms;
}

void print_tables() {
  for (const char* boundary : {"AABB", "Ellipse"}) {
    TextTable table(std::string("Fig. 3 (") + boundary +
                    "): stage runtime breakdown [ms, this CPU]");
    table.set_header({"scene", "tile", "preprocess", "sort", "raster", "total"});
    for (const auto& scene : algo_scene_names()) {
      for (const int tile : kTileSizes) {
        const StageTimes& t = g_times[boundary][scene][tile];
        table.add_row({scene, std::to_string(tile) + "x" + std::to_string(tile),
                       format_fixed(t.preprocess_ms, 2), format_fixed(t.sort_ms, 2),
                       format_fixed(t.raster_ms, 2), format_fixed(t.total_ms(), 2)});
      }
    }
    table.print();
    std::printf("\n");
  }
  std::printf(
      "paper reference (A6000): preprocessing + sorting fall and rasterization rises\n"
      "with tile size; 16x16 is usually the fastest overall, occasionally 32x32.\n");
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  gstg::benchutil::print_scale_banner("Fig. 3: stage runtimes vs tile size");
  for (const Boundary b : {Boundary::kAabb, Boundary::kEllipse}) {
    for (const auto& scene : algo_scene_names()) {
      for (const int tile : kTileSizes) {
        benchmark::RegisterBenchmark(
            ("Fig3/" + std::string(to_string(b)) + "/" + scene + "/tile:" + std::to_string(tile))
                .c_str(),
            [scene, tile, b](benchmark::State& state) { run_case(state, scene, tile, b); })
            ->Iterations(1)
            ->Unit(benchmark::kMillisecond);
      }
    }
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  print_tables();
  return 0;
}
