// Fig. 13: stage-wise runtime breakdown for the Train scene — baseline
// (Ellipse) at 16/32/64 tiles vs GS-TG (Ellipse+Ellipse, 16+64), GPU-order
// execution. GS-TG's sorting matches the 64x64 baseline while its
// rasterization matches the 16x16 baseline; on a GPU the bitmask
// generation cannot hide under sorting, so it lands in preprocessing (the
// paper's "Ours" preprocessing bar being taller than the baseline's).
#include <benchmark/benchmark.h>

#include <cstdio>
#include <map>

#include "common.h"
#include "common/table.h"
#include "core/pipeline.h"

namespace {

using namespace gstg;
using benchutil::cached_scene;

std::map<std::string, StageTimes> g_times;

void run_baseline(benchmark::State& state, int tile) {
  const Scene& scene = cached_scene("train");
  RenderConfig config;
  config.tile_size = tile;
  config.boundary = Boundary::kEllipse;
  for (auto _ : state) {
    const RenderResult r = render_baseline(scene.cloud, scene.camera, config);
    benchmark::DoNotOptimize(r.counters.alpha_computations);
    g_times[std::to_string(tile) + "x" + std::to_string(tile)] = r.times;
  }
}

void run_ours(benchmark::State& state) {
  const Scene& scene = cached_scene("train");
  GsTgConfig config;  // 16+64, Ellipse+Ellipse
  for (auto _ : state) {
    const RenderResult r = render_gstg(scene.cloud, scene.camera, config);
    benchmark::DoNotOptimize(r.counters.alpha_computations);
    StageTimes t = r.times;
    // GPU order: bitmask generation is serialized into preprocessing.
    t.preprocess_ms += t.bitmask_ms;
    t.bitmask_ms = 0.0;
    g_times["Ours(16+64)"] = t;
  }
}

void print_table() {
  TextTable table("Fig. 13: Train stage breakdown [ms, this CPU], Ellipse boundary");
  table.set_header({"config", "preprocess", "sort", "raster", "total"});
  for (const char* key : {"16x16", "32x32", "64x64", "Ours(16+64)"}) {
    const StageTimes& t = g_times[key];
    table.add_row({key, format_fixed(t.preprocess_ms, 2), format_fixed(t.sort_ms, 2),
                   format_fixed(t.raster_ms, 2), format_fixed(t.total_ms(), 2)});
  }
  table.print();
  std::printf(
      "\npaper reference: Ours sorts like 64x64, rasterizes like 16x16; GPU-order\n"
      "preprocessing of Ours exceeds the baseline because bitmask generation\n"
      "cannot overlap sorting on SIMT hardware (resolved by the accelerator).\n");
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  gstg::benchutil::print_scale_banner("Fig. 13: Train stage breakdown");
  for (const int tile : {16, 32, 64}) {
    benchmark::RegisterBenchmark(("Fig13/baseline/tile:" + std::to_string(tile)).c_str(),
                                 [tile](benchmark::State& state) { run_baseline(state, tile); })
        ->Iterations(1)
        ->Unit(benchmark::kMillisecond);
  }
  benchmark::RegisterBenchmark("Fig13/ours", run_ours)
      ->Iterations(1)
      ->Unit(benchmark::kMillisecond);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  print_table();
  return 0;
}
