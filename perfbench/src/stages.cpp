#include "stages.h"

#include <bit>

#include "core/grouping.h"
#include "render/binning.h"
#include "render/preprocess.h"
#include "render/rasterize.h"
#include "render/sort.h"
#include "sim/accel.h"
#include "sim/workload.h"

namespace perfbench {

namespace {

/// Runs fn() inside a span `name` under `parent`.
template <typename Fn>
void in_span(Trace& trace, const char* name, int parent, std::int64_t op, Fn&& fn) {
  const int id = trace.begin(name, parent, op);
  fn();
  trace.end(id);
}

}  // namespace

void staged_gstg(const gstg::GsTgConfig& config, const gstg::GaussianCloud& cloud,
                 const gstg::Camera& camera, StagedGstg& s, Trace& trace, std::int64_t op) {
  const gstg::RenderConfig rc = config.render_config();
  gstg::GroupedFrame& frame = s.frame;
  s.counters = {};
  const int root = trace.begin("core.frame", -1, op);
  in_span(trace, "render.preprocess", root, op, [&] {
    gstg::preprocess_into(cloud, camera, rc, s.counters, s.splats, s.preprocess);
  });
  frame.config = config;
  frame.tile_grid = gstg::CellGrid::over_image(camera.width(), camera.height(), config.tile_size);
  frame.group_grid =
      gstg::CellGrid::over_image(camera.width(), camera.height(), config.group_size);
  in_span(trace, "core.group_bin", root, op, [&] {
    gstg::bin_splats_into(s.splats, frame.group_grid, config.group_boundary, config.threads,
                          s.counters, frame.group_bins, s.binning, config.binning);
  });
  in_span(trace, "core.bitmask", root, op, [&] {
    gstg::generate_bitmasks_into(s.splats, frame.group_bins, frame.tile_grid, config, s.counters,
                                 frame.masks);
  });
  in_span(trace, "core.group_sort", root, op, [&] {
    gstg::sort_groups(frame.group_bins, frame.masks, s.splats, config.threads, s.counters,
                      config.sort_algo, &s.sort);
  });
  in_span(trace, "core.raster", root, op, [&] {
    s.image.resize(camera.width(), camera.height());
    gstg::rasterize_grouped(frame, s.splats, s.image, config.threads, s.counters, &s.raster);
  });
  trace.end(root);

  s.mask_hits = 0;
  for (const gstg::TileMask mask : frame.masks) s.mask_hits += std::popcount(mask);
}

gstg::RenderResult staged_baseline(const gstg::RenderConfig& config,
                                   const gstg::GaussianCloud& cloud, const gstg::Camera& camera,
                                   Trace& trace, std::int64_t op) {
  gstg::RenderResult result{gstg::Framebuffer(camera.width(), camera.height()), {}, {}, {}};
  const int root = trace.begin("render.frame", -1, op);
  std::vector<gstg::ProjectedSplat> splats;
  in_span(trace, "render.preprocess", root, op,
          [&] { splats = gstg::preprocess(cloud, camera, config, result.counters); });
  const gstg::CellGrid grid =
      gstg::CellGrid::over_image(camera.width(), camera.height(), config.tile_size);
  gstg::BinnedSplats bins;
  in_span(trace, "render.tile_bin", root, op, [&] {
    bins = gstg::bin_splats(splats, grid, config.boundary, config.threads, result.counters,
                            config.binning);
  });
  in_span(trace, "render.tile_sort", root, op, [&] {
    gstg::sort_cell_lists(bins, splats, config.threads, result.counters, config.sort_algo);
  });
  in_span(trace, "render.tile_raster", root, op, [&] {
    gstg::rasterize_all(bins, splats, result.image, config.threads, result.counters,
                        config.simd);
  });
  trace.end(root);
  return result;
}

SimView simulate_view(const gstg::GaussianCloud& cloud, const gstg::Camera& camera,
                      const gstg::GsTgConfig& config) {
  SimView v;
  const gstg::HwConfig hw;
  auto t0 = Clock::now();
  const gstg::FrameWorkload wg = gstg::build_gstg_workload(cloud, camera, config);
  auto t1 = Clock::now();
  v.gstg = gstg::simulate_frame(wg, gstg::gstg_pipeline_model(), hw);
  auto t2 = Clock::now();
  v.extract_ms[0] = ms_between(t0, t1);
  v.simulate_ms[0] = ms_between(t1, t2);

  t0 = Clock::now();
  const gstg::FrameWorkload wb =
      gstg::build_tile_sorted_workload(cloud, camera, config.render_config(), "Baseline");
  t1 = Clock::now();
  v.baseline = gstg::simulate_frame(wb, gstg::baseline_pipeline_model(), hw);
  t2 = Clock::now();
  v.extract_ms[1] = ms_between(t0, t1);
  v.simulate_ms[1] = ms_between(t1, t2);
  return v;
}

namespace {

bool same_report(const gstg::SimReport& a, const gstg::SimReport& b) {
  return a.pm_cycles == b.pm_cycles && a.bgm_cycles == b.bgm_cycles &&
         a.gsm_cycles == b.gsm_cycles && a.rm_cycles == b.rm_cycles &&
         a.dram_cycles == b.dram_cycles && a.sort_stage_cycles == b.sort_stage_cycles &&
         a.total_cycles == b.total_cycles && a.dram_bytes == b.dram_bytes &&
         a.spill_bytes == b.spill_bytes && a.energy.total_j() == b.energy.total_j() &&
         a.bottleneck == b.bottleneck;
}

}  // namespace

bool same_simulation(const SimView& a, const SimView& b) {
  return same_report(a.gstg, b.gstg) && same_report(a.baseline, b.baseline);
}

}  // namespace perfbench
