// fp16 fidelity experiment (extension; DESIGN.md section 6).
//
// Section VI-A converts the fp32-trained models to fp16 for the
// accelerator. This bench quantifies what that costs: it renders each
// algorithm scene from the fp32 cloud and from the fp16-quantised cloud
// and reports PSNR / SSIM between the two, plus the quantisation error and
// the change in pipeline workload (pairs), supporting the paper's implicit
// claim that fp16 is visually lossless.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <map>

#include "common.h"
#include "common/table.h"
#include "core/pipeline.h"
#include "gaussian/quantize.h"
#include "render/metrics.h"

namespace {

using namespace gstg;
using benchutil::algo_scene_names;

struct Fp16Result {
  double psnr_db = 0.0;
  double ssim_score = 0.0;
  double max_sh_err = 0.0;
  double pairs_ratio = 0.0;
};

std::map<std::string, Fp16Result> g_results;

void run_scene(benchmark::State& state, const std::string& scene_name) {
  for (auto _ : state) {
    const Scene scene = generate_scene(scene_name);
    RenderConfig config;
    config.tile_size = 16;
    config.boundary = Boundary::kEllipse;
    const RenderResult fp32 = render_baseline(scene.cloud, scene.camera, config);

    GaussianCloud quantized = scene.cloud;
    const QuantizeReport q = quantize_cloud_to_fp16(quantized);
    const RenderResult fp16 = render_baseline(quantized, scene.camera, config);

    Fp16Result r;
    r.psnr_db = psnr(fp32.image, fp16.image);
    r.ssim_score = ssim(fp32.image, fp16.image);
    r.max_sh_err = q.max_sh_error;
    r.pairs_ratio = static_cast<double>(fp16.counters.tile_pairs) /
                    static_cast<double>(fp32.counters.tile_pairs);
    g_results[scene_name] = r;
    benchmark::DoNotOptimize(r.psnr_db);
  }
  state.counters["psnr_db"] = g_results[scene_name].psnr_db;
}

void print_table() {
  TextTable table("fp16 model quantisation fidelity (baseline Ellipse, tile 16)");
  table.set_header({"scene", "PSNR [dB]", "SSIM", "max SH err", "pairs fp16/fp32"});
  for (const auto& scene : algo_scene_names()) {
    const Fp16Result& r = g_results[scene];
    table.add_row({scene, format_fixed(r.psnr_db, 1), format_fixed(r.ssim_score, 4),
                   format_fixed(r.max_sh_err, 5), format_fixed(r.pairs_ratio, 4)});
  }
  table.print();
  std::printf(
      "\ninterpretation: PSNR well above ~40 dB and SSIM ~1 mean the fp16\n"
      "conversion the paper applies (section VI-A) is visually lossless; the\n"
      "pairs ratio shows the binning workload is essentially unchanged.\n");
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  gstg::benchutil::print_scale_banner("fp16 fidelity (extension)");
  for (const auto& scene : algo_scene_names()) {
    benchmark::RegisterBenchmark(("Fp16/" + scene).c_str(),
                                 [scene](benchmark::State& state) { run_scene(state, scene); })
        ->Iterations(1)
        ->Unit(benchmark::kMillisecond);
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  print_table();
  return 0;
}
