// Shared runner for the hardware evaluation (Figs. 14/15, the ablations and
// run_all's BENCH_hardware.json): builds the three designs' workloads per
// scene and simulates each on the GS-TG hardware configuration. The models
// are fp16-quantised first, as in the paper's methodology (section VI-A).
#pragma once

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common.h"
#include "gaussian/quantize.h"
#include "sim/accel.h"
#include "sim/workload.h"

namespace gstg::benchutil {

struct SceneSims {
  SimReport baseline;
  SimReport gscore;
  SimReport gstg;
  FrameWorkload gstg_workload;  ///< GS-TG's input, for what-if simulations
};

/// Runs baseline / GSCore / GS-TG on one scene and returns the reports.
inline SceneSims simulate_scene(const std::string& scene_name) {
  Scene scene = generate_scene(scene_name);
  quantize_cloud_to_fp16(scene.cloud);

  const HwConfig hw;

  RenderConfig baseline_config;
  baseline_config.tile_size = 16;
  baseline_config.boundary = Boundary::kEllipse;
  FrameWorkload wb =
      build_tile_sorted_workload(scene.cloud, scene.camera, baseline_config, "Baseline");
  FrameWorkload wc = build_gscore_workload(scene.cloud, scene.camera, 16);
  GsTgConfig gstg_config;  // 16+64, Ellipse+Ellipse
  FrameWorkload wg = build_gstg_workload(scene.cloud, scene.camera, gstg_config);
  wb.scene = wc.scene = wg.scene = scene_name;

  SceneSims sims{simulate_frame(wb, baseline_pipeline_model(), hw),
                 simulate_frame(wc, gscore_pipeline_model(), hw),
                 simulate_frame(wg, gstg_pipeline_model(), hw), {}};
  sims.gstg_workload = std::move(wg);
  return sims;
}

}  // namespace gstg::benchutil
