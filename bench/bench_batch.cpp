// Batched multi-view rendering: persistent FrameContext reuse and
// view-level parallelism (core/renderer.h) against the one-shot
// render_gstg loop. These are the serving-path numbers — a multi-user
// deployment renders exactly like the "reused"/"batch" rows.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "common.h"
#include "common/table.h"
#include "common/timer.h"
#include "core/pipeline.h"
#include "core/renderer.h"

namespace {

using namespace gstg;
using benchutil::algo_scene_names;
using benchutil::cached_scene;

constexpr int kViews = 4;

std::map<std::string, std::map<std::string, double>> g_ms;  // mode -> scene -> ms

std::vector<Camera> scene_orbit(const Scene& scene) { return orbit_cameras(scene, kViews); }

// One-shot loop: a fresh pipeline (and fresh allocations) per view.
void run_oneshot(benchmark::State& state, const std::string& scene_name) {
  const Scene& scene = cached_scene(scene_name);
  const auto cameras = scene_orbit(scene);
  GsTgConfig config;
  double ms = 0.0;
  int iterations = 0;
  for (auto _ : state) {
    Timer timer;
    for (const Camera& camera : cameras) {
      const RenderResult r = render_gstg(scene.cloud, camera, config);
      benchmark::DoNotOptimize(r.counters.alpha_computations);
    }
    ms += timer.lap_ms();
    ++iterations;
  }
  g_ms["oneshot"][scene_name] = ms / iterations;
}

// Persistent context, sequential views: the steady-state allocation-free
// path with intra-frame threading only.
void run_reused(benchmark::State& state, const std::string& scene_name) {
  const Scene& scene = cached_scene(scene_name);
  const auto cameras = scene_orbit(scene);
  GsTgConfig config;
  const Renderer renderer(config);
  FrameContext ctx;
  double ms = 0.0;
  int iterations = 0;
  for (auto _ : state) {
    Timer timer;
    for (const Camera& camera : cameras) {
      renderer.render(scene.cloud, camera, ctx);
      benchmark::DoNotOptimize(ctx.counters.alpha_computations);
    }
    ms += timer.lap_ms();
    ++iterations;
  }
  g_ms["reused"][scene_name] = ms / iterations;
}

// render_batch: view-level parallelism, one context per view worker.
void run_batch(benchmark::State& state, const std::string& scene_name) {
  const Scene& scene = cached_scene(scene_name);
  const auto cameras = scene_orbit(scene);
  GsTgConfig config;
  config.threads = 1;  // the parallelism is across views here
  double ms = 0.0;
  int iterations = 0;
  for (auto _ : state) {
    const BatchRenderResult r = render_batch(scene.cloud, cameras, config);
    benchmark::DoNotOptimize(r.total.alpha_computations);
    ms += r.wall_ms;
    ++iterations;
  }
  g_ms["batch"][scene_name] = ms / iterations;
}

void print_table() {
  TextTable table("Batched rendering: 4-view orbit, ms per batch (lower is better)");
  std::vector<std::string> header = {"mode"};
  for (const auto& s : algo_scene_names()) header.push_back(s);
  table.set_header(header);
  for (const char* mode : {"oneshot", "reused", "batch"}) {
    std::vector<double> row;
    for (const auto& scene : algo_scene_names()) row.push_back(g_ms[mode][scene]);
    table.add_row(mode, row, 2);
  }
  table.print();
  std::printf("\n'reused' isolates allocation/scratch reuse; 'batch' adds view-level "
              "parallelism (intra-frame threads pinned to 1).\n");
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  gstg::benchutil::print_scale_banner("batched multi-view rendering");
  for (const auto& scene : algo_scene_names()) {
    benchmark::RegisterBenchmark(
        ("Batch/oneshot/" + scene).c_str(),
        [scene](benchmark::State& state) { run_oneshot(state, scene); })
        ->Iterations(3)
        ->Unit(benchmark::kMillisecond);
    benchmark::RegisterBenchmark(
        ("Batch/reused/" + scene).c_str(),
        [scene](benchmark::State& state) { run_reused(state, scene); })
        ->Iterations(3)
        ->Unit(benchmark::kMillisecond);
    benchmark::RegisterBenchmark(
        ("Batch/batch/" + scene).c_str(),
        [scene](benchmark::State& state) { run_batch(state, scene); })
        ->Iterations(3)
        ->Unit(benchmark::kMillisecond);
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  print_table();
  return 0;
}
