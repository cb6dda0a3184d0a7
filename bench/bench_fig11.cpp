// Fig. 11: GS-TG speedup for tile+group size combinations (8+16, 8+32,
// 8+64, 16+32, 16+64) over the conventional pipeline, four scenes,
// GPU-order execution (stages sequential, as on a GPU). The paper finds
// 16+64 fastest in most cases.
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

struct Combo {
  int tile;
  int group;
};
constexpr std::array<Combo, 5> kCombos = {{{8, 16}, {8, 32}, {8, 64}, {16, 32}, {16, 64}}};

std::map<std::string, double> g_baseline_ms;                  // per scene
std::map<std::string, std::map<std::string, double>> g_ours;  // combo -> scene -> ms

std::string combo_name(const Combo& c) {
  return std::to_string(c.tile) + "+" + std::to_string(c.group);
}

void run_baseline(benchmark::State& state, const std::string& scene_name) {
  const Scene& scene = cached_scene(scene_name);
  RenderConfig config;  // tile 16, Ellipse: the conventional fast default
  config.tile_size = 16;
  config.boundary = Boundary::kEllipse;
  double ms = 0.0;
  int iterations = 0;
  for (auto _ : state) {
    const RenderResult r = render_baseline(scene.cloud, scene.camera, config);
    benchmark::DoNotOptimize(r.counters.alpha_computations);
    ms += r.times.total_ms();
    ++iterations;
  }
  g_baseline_ms[scene_name] = ms / iterations;
}

void run_combo(benchmark::State& state, const std::string& scene_name, const Combo& combo) {
  const Scene& scene = cached_scene(scene_name);
  GsTgConfig config;
  config.tile_size = combo.tile;
  config.group_size = combo.group;
  double ms = 0.0;
  int iterations = 0;
  for (auto _ : state) {
    const RenderResult r = render_gstg(scene.cloud, scene.camera, config);
    benchmark::DoNotOptimize(r.counters.alpha_computations);
    ms += r.times.total_ms();  // GPU order: all four stages sequential
    ++iterations;
  }
  g_ours[combo_name(combo)][scene_name] = ms / iterations;
}

void print_table() {
  TextTable table("Fig. 11: GS-TG speedup vs tile+group size (GPU-order, vs baseline 16 Ellipse)");
  std::vector<std::string> header = {"combo"};
  for (const auto& s : algo_scene_names()) header.push_back(s);
  table.set_header(header);
  for (const Combo& combo : kCombos) {
    std::vector<double> row;
    for (const auto& scene : algo_scene_names()) {
      row.push_back(g_baseline_ms[scene] / g_ours[combo_name(combo)][scene]);
    }
    table.add_row(combo_name(combo), row, 2);
  }
  table.print();
  std::printf("\npaper reference: speedups around 0.9-1.3 with 16+64 fastest in most cases.\n");
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  gstg::benchutil::print_scale_banner("Fig. 11: tile+group size sweep");
  for (const auto& scene : algo_scene_names()) {
    benchmark::RegisterBenchmark(
        ("Fig11/baseline/" + scene).c_str(),
        [scene](benchmark::State& state) { run_baseline(state, scene); })
        ->Iterations(3)
        ->Unit(benchmark::kMillisecond);
    for (const Combo& combo : kCombos) {
      benchmark::RegisterBenchmark(
          ("Fig11/" + combo_name(combo) + "/" + scene).c_str(),
          [scene, combo](benchmark::State& state) { run_combo(state, scene, combo); })
          ->Iterations(3)
          ->Unit(benchmark::kMillisecond);
    }
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  print_table();
  return 0;
}
