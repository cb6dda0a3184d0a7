// Fig. 12: GS-TG speedup for boundary-method combinations, four scenes,
// normalised to the baseline with AABB. The x-axis boundary is used by the
// baseline's tile identification and by GS-TG's group identification; the
// bar colour is the boundary used in GS-TG's bitmask generation. Key paper
// findings: (1) Ellipse+Ellipse beats every baseline, (2) same-boundary
// GS-TG beats the same-boundary baseline, (3) grouping composes with any
// boundary method.
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

constexpr std::array<Boundary, 3> kBoundaries = {Boundary::kAabb, Boundary::kObb,
                                                 Boundary::kEllipse};

std::map<std::string, std::map<std::string, double>> g_ms;  // config -> scene -> ms

std::string base_key(Boundary b) { return std::string("Base+") + to_string(b); }
std::string ours_key(Boundary group, Boundary mask) {
  return std::string("Ours ") + to_string(group) + "+" + to_string(mask);
}

void run_baseline(benchmark::State& state, const std::string& scene_name, Boundary boundary) {
  const Scene& scene = cached_scene(scene_name);
  RenderConfig config;
  config.tile_size = 16;
  config.boundary = boundary;
  double ms = 0.0;
  int iterations = 0;
  for (auto _ : state) {
    const RenderResult r = render_baseline(scene.cloud, scene.camera, config);
    benchmark::DoNotOptimize(r.counters.alpha_computations);
    ms += r.times.total_ms();
    ++iterations;
  }
  g_ms[base_key(boundary)][scene_name] = ms / iterations;
}

void run_ours(benchmark::State& state, const std::string& scene_name, Boundary group,
              Boundary mask) {
  const Scene& scene = cached_scene(scene_name);
  GsTgConfig config;  // 16+64 geometry from Fig. 11's winner
  config.group_boundary = group;
  config.mask_boundary = mask;
  double ms = 0.0;
  int iterations = 0;
  for (auto _ : state) {
    const RenderResult r = render_gstg(scene.cloud, scene.camera, config);
    benchmark::DoNotOptimize(r.counters.alpha_computations);
    ms += r.times.total_ms();
    ++iterations;
  }
  g_ms[ours_key(group, mask)][scene_name] = ms / iterations;
}

void print_table() {
  TextTable table("Fig. 12: speedup vs baseline AABB (GPU-order, tile 16, group 64)");
  std::vector<std::string> header = {"config"};
  for (const auto& s : algo_scene_names()) header.push_back(s);
  table.set_header(header);
  auto emit = [&](const std::string& key) {
    std::vector<double> row;
    for (const auto& scene : algo_scene_names()) {
      row.push_back(g_ms[base_key(Boundary::kAabb)][scene] / g_ms[key][scene]);
    }
    table.add_row(key, row, 2);
  };
  for (const Boundary b : kBoundaries) emit(base_key(b));
  for (const Boundary group : kBoundaries) {
    for (const Boundary mask : kBoundaries) {
      GsTgConfig probe;
      probe.group_boundary = group;
      probe.mask_boundary = mask;
      if (probe.lossless_guaranteed()) emit(ours_key(group, mask));
    }
  }
  table.print();
  std::printf(
      "\npaper reference: Ellipse+Ellipse on top; each Ours(X+X) beats Base+X;\n"
      "combinations with any boundary method remain beneficial.\n");
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  gstg::benchutil::print_scale_banner("Fig. 12: boundary-method combinations");
  for (const auto& scene : algo_scene_names()) {
    for (const Boundary b : kBoundaries) {
      benchmark::RegisterBenchmark(
          ("Fig12/" + base_key(b) + "/" + scene).c_str(),
          [scene, b](benchmark::State& state) { run_baseline(state, scene, b); })
          ->Iterations(3)
          ->Unit(benchmark::kMillisecond);
    }
    for (const Boundary group : kBoundaries) {
      for (const Boundary mask : kBoundaries) {
        GsTgConfig probe;
        probe.group_boundary = group;
        probe.mask_boundary = mask;
        if (!probe.lossless_guaranteed()) continue;
        benchmark::RegisterBenchmark(
            ("Fig12/" + ours_key(group, mask) + "/" + scene).c_str(),
            [scene, group, mask](benchmark::State& state) {
              run_ours(state, scene, group, mask);
            })
            ->Iterations(3)
            ->Unit(benchmark::kMillisecond);
      }
    }
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  print_table();
  return 0;
}
