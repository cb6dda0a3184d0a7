// bench_paper: the paper's evaluation (GS-TG section VI) as one report —
// Tables I-III, Figs. 3, 5, 7 and 11-15, and three extensions (the hardware
// ablations, fp16 fidelity and the footprint extent). Prints every table
// with its paper-reference footer and writes BENCH_paper.json: per figure or
// table its footer ("reference", not gated) and one list of "rows", each a
// printed row keyed by "case" with its cells under named fields at their
// printed precision. scripts/check_bench.py --paper gates the file.
//
// A pass that several figures read runs once:
//   binning     (boundary, scene, tile)    -> Figs. 5, 7, Table I
//   baselines   per-tile renders           -> Figs. 3, 11, 12, 13, fp16
//   GS-TG       tile+group / boundary sweep -> Figs. 11, 12, 13, footprint
//   simulation  three designs, six scenes   -> Figs. 14, 15, ablations
// Render times are the best of --repeat samples (benchutil::best_of).
// Absolute times are this CPU's; the reproduced result is their shape.
//
// Run:  ./bench_paper [--out-dir=.] [--repeat=3]
#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common.h"
#include "common/cli.h"
#include "common/stats.h"
#include "common/table.h"
#include "core/pipeline.h"
#include "gaussian/quantize.h"
#include "json_writer.h"
#include "render/binning.h"
#include "render/metrics.h"
#include "render/preprocess.h"
#include "sim/accel.h"
#include "sim_runner.h"

namespace {

using namespace gstg;
using benchutil::algo_scene_names;
using benchutil::all_scene_names;
using benchutil::JsonWriter;

constexpr std::array<int, 4> kTileSizes = {8, 16, 32, 64};
constexpr std::array<Boundary, 3> kBoundaries = {Boundary::kAabb, Boundary::kObb,
                                                 Boundary::kEllipse};
constexpr std::array<Boundary, 2> kFig3Boundaries = {Boundary::kAabb, Boundary::kEllipse};
/// Fig. 11's tile+group combinations.
constexpr std::array<std::pair<int, int>, 5> kCombos = {
    {{8, 16}, {8, 32}, {8, 64}, {16, 32}, {16, 64}}};

// ---- the report: printed tables that are also JSON rows -------------------

/// One printed cell. `field` names it in its JSON row (empty: printed only);
/// `number` is its JSON number token (empty: the text is a JSON string).
struct Cell {
  std::string text;
  std::string field;
  std::string number;
};

Cell label(std::string text) { return {std::move(text), "", ""}; }
Cell str(std::string field, std::string text) { return {std::move(text), std::move(field), ""}; }
/// A number at its printed precision: the JSON records what the table shows.
Cell num(std::string field, double value, int digits, const std::string& suffix = "") {
  std::string fixed = format_fixed(value, digits);
  return {fixed + suffix, std::move(field), std::isfinite(value) ? fixed : "null"};
}

struct Table {
  std::string title;
  std::vector<std::string> header;
  std::vector<std::pair<std::string, std::vector<Cell>>> rows;  ///< (case, cells)

  void row(std::string key, std::vector<Cell> cells) {
    rows.emplace_back(std::move(key), std::move(cells));
  }
};

/// One figure or table of the paper: its tables, then its reference footer.
struct Figure {
  std::string name;  ///< its key in BENCH_paper.json
  std::vector<Table> tables;
  std::string reference;
};

/// Prints the figure and writes it as {"reference", "rows"} under its name.
void emit(const Figure& figure, JsonWriter& json) {
  json.open_object(figure.name);
  json.value("reference", figure.reference);
  json.open_array("rows");
  for (const Table& table : figure.tables) {
    TextTable text(table.title);
    text.set_header(table.header);
    for (const auto& [key, cells] : table.rows) {
      std::vector<std::string> printed;
      json.open_object();
      json.value("case", key);
      for (const Cell& cell : cells) {
        printed.push_back(cell.text);
        if (cell.field.empty()) continue;
        if (cell.number.empty()) {
          json.value(cell.field, cell.text);
        } else {
          json.number(cell.field, cell.number);
        }
      }
      json.close_object();
      text.add_row(std::move(printed));
    }
    text.print();
    std::printf("\n");
  }
  std::printf("%s\n\n", figure.reference.c_str());
  json.close_array();
  json.close_object();
}

// ---- the passes --------------------------------------------------------------

std::string tile_name(int tile) { return std::to_string(tile) + "x" + std::to_string(tile); }

std::string case_of(Boundary boundary, const std::string& scene, int tile) {
  return std::string(to_string(boundary)) + "/" + scene + "/" + tile_name(tile);
}

std::string gstg_name(const GsTgConfig& c) {
  return std::to_string(c.tile_size) + "+" + std::to_string(c.group_size) + "/" +
         to_string(c.group_boundary) + "+" + to_string(c.mask_boundary);
}

/// Fig. 12's lossless boundary combinations at 16+64, then Fig. 11's other
/// tile+group combinations (Ellipse+Ellipse; its 16+64 is Fig. 12's).
std::vector<GsTgConfig> gstg_configs() {
  std::vector<GsTgConfig> configs;
  for (const Boundary group : kBoundaries) {
    for (const Boundary mask : kBoundaries) {
      GsTgConfig config;
      config.group_boundary = group;
      config.mask_boundary = mask;
      if (config.lossless_guaranteed()) configs.push_back(config);
    }
  }
  for (const auto& [tile, group] : kCombos) {
    GsTgConfig config;
    config.tile_size = tile;
    config.group_size = group;
    if (gstg_name(config) != gstg_name(GsTgConfig{})) configs.push_back(config);
  }
  return configs;
}

struct BinStats {
  double tiles_per_gaussian = 0.0;
  double gaussians_per_pixel = 0.0;
  double shared_percent = 0.0;
};

/// Everything the figures read, filled by one run of each pass.
struct Passes {
  std::map<std::string, BinStats> bins;         ///< by case_of(boundary, scene, tile)
  std::map<std::string, StageTimes> baselines;  ///< by case_of(boundary, scene, tile)
  std::map<std::string, StageTimes> gstg;       ///< by scene + "/" + gstg_name(config)
  std::map<std::string, std::vector<Cell>> fp16;  ///< table row by scene
  std::map<std::string, std::vector<Cell>> rho;   ///< table row by scene
  std::map<std::string, benchutil::SceneSims> sims;  ///< by scene, all six
};

/// Average per-pixel list length: sum over cells of len(cell) * pixels(cell)
/// divided by the image pixel count (Fig. 7's per-pixel workload).
double gaussians_per_pixel(const BinnedSplats& bins) {
  const CellGrid& g = bins.grid;
  double work = 0.0;
  for (int c = 0; c < g.cell_count(); ++c) {
    const int cx = c % g.cells_x, cy = c / g.cells_x;
    const int w = std::min(g.cell_size, g.image_width - cx * g.cell_size);
    const int h = std::min(g.cell_size, g.image_height - cy * g.cell_size);
    work += static_cast<double>(bins.cell_size_of(c)) * w * h;
  }
  return work / (static_cast<double>(g.image_width) * g.image_height);
}

/// fp16 fidelity: the fp32 render against the same config's render of the
/// fp16-quantised cloud (section VI-A converts the models to fp16).
std::vector<Cell> fp16_row(const Scene& scene, const RenderConfig& config,
                           const RenderResult& fp32) {
  GaussianCloud quantized = scene.cloud;
  const QuantizeReport q = quantize_cloud_to_fp16(quantized);
  const RenderResult fp16 = render_baseline(quantized, scene.camera, config);
  return {label(scene.info.name), num("psnr_db", psnr(fp32.image, fp16.image), 1),
          num("ssim", ssim(fp32.image, fp16.image), 4),
          num("max_sh_err", static_cast<double>(q.max_sh_error), 5),
          num("pairs_ratio",
              static_cast<double>(fp16.counters.tile_pairs) /
                  static_cast<double>(fp32.counters.tile_pairs),
              4)};
}

/// Footprint extent: the 3-sigma render against the opacity-aware bound.
std::vector<Cell> rho_row(const Scene& scene, GsTgConfig config, const RenderResult& three_sigma) {
  config.opacity_aware_rho = true;
  const RenderResult opacity = render_gstg(scene.cloud, scene.camera, config);
  const auto pairs_3sigma = static_cast<double>(three_sigma.counters.sort_pairs);
  const auto pairs_opacity = static_cast<double>(opacity.counters.sort_pairs);
  return {label(scene.info.name), num("sort_pairs_3sigma", pairs_3sigma, 0),
          num("sort_pairs_opacity", pairs_opacity, 0),
          num("pairs_ratio", pairs_opacity / pairs_3sigma, 3),
          num("alpha_3sigma", static_cast<double>(three_sigma.counters.alpha_computations), 0),
          num("alpha_opacity", static_cast<double>(opacity.counters.alpha_computations), 0),
          num("max_abs_diff", static_cast<double>(max_abs_diff(three_sigma.image, opacity.image)),
              4)};
}

/// The binning, baseline and GS-TG passes over one algorithm scene.
void run_scene(const std::string& name, int repeat, Passes& out) {
  const Scene& scene = benchutil::cached_scene(name);
  for (const Boundary boundary : kFig3Boundaries) {
    for (const int tile : kTileSizes) {
      RenderConfig config;
      config.tile_size = tile;
      config.boundary = boundary;
      RenderCounters counters;
      const auto splats = preprocess(scene.cloud, scene.camera, config, counters);
      const CellGrid grid =
          CellGrid::over_image(scene.camera.width(), scene.camera.height(), tile);
      const BinnedSplats bins = bin_splats(splats, grid, boundary, 0, counters);
      out.bins[case_of(boundary, name, tile)] = {
          counters.tiles_per_gaussian(), gaussians_per_pixel(bins),
          counters.shared_gaussian_percent()};
    }
  }
  // Every tile size for AABB and Ellipse (Figs. 3, 13), OBB at 16 (Fig. 12).
  for (const Boundary boundary : kBoundaries) {
    for (const int tile : kTileSizes) {
      if (boundary == Boundary::kObb && tile != 16) continue;
      RenderConfig config;
      config.tile_size = tile;
      config.boundary = boundary;
      const RenderResult r = benchutil::best_of(
          repeat, [&] { return render_baseline(scene.cloud, scene.camera, config); });
      out.baselines[case_of(boundary, name, tile)] = r.times;
      if (boundary == Boundary::kEllipse && tile == 16) {
        out.fp16[name] = fp16_row(scene, config, r);
      }
    }
  }
  for (const GsTgConfig& config : gstg_configs()) {
    const RenderResult r = benchutil::best_of(
        repeat, [&] { return render_gstg(scene.cloud, scene.camera, config); });
    out.gstg[name + "/" + gstg_name(config)] = r.times;
    if (gstg_name(config) == gstg_name(GsTgConfig{})) {
      out.rho[name] = rho_row(scene, config, r);
    }
  }
}

// ---- the figures -----------------------------------------------------------

std::vector<std::string> scene_header(const std::string& first) {
  std::vector<std::string> header = {first};
  for (const std::string& scene : algo_scene_names()) header.push_back(scene);
  return header;
}

/// Preprocess / sort / raster / total [ms] cells (Figs. 3 and 13).
void add_stage_cells(std::vector<Cell>& cells, const StageTimes& t) {
  cells.push_back(num("preprocess_ms", t.preprocess_ms, 2));
  cells.push_back(num("sort_ms", t.sort_ms, 2));
  cells.push_back(num("raster_ms", t.raster_ms, 2));
  cells.push_back(num("total_ms", t.total_ms(), 2));
}

Figure table2() {
  Table table{"Table II: datasets (paper resolution; bench runs scaled per banner)",
              {"dataset", "scene", "resolution", "type"},
              {}};
  for (const SceneInfo& info : all_scenes()) {
    table.row(info.name,
              {str("dataset", info.dataset), label(info.name),
               str("resolution",
                   std::to_string(info.paper_width) + "x" + std::to_string(info.paper_height)),
               str("type", info.kind == SceneKind::kIndoorRoom ? "Indoor" : "Outdoor")});
  }
  return {"table2", {table}, "paper reference: Table II lists these six scenes and resolutions."};
}

Figure table1(const Passes& p) {
  Table table{"Table I: % of Gaussians shared with adjacent tiles (AABB)",
              {"scene", "8x8", "16x16", "32x32", "64x64"},
              {}};
  std::array<double, kTileSizes.size()> sums{};
  for (const std::string& scene : algo_scene_names()) {
    std::vector<Cell> cells = {label(scene)};
    for (std::size_t i = 0; i < kTileSizes.size(); ++i) {
      const double v = p.bins.at(case_of(Boundary::kAabb, scene, kTileSizes[i])).shared_percent;
      sums[i] += v;
      cells.push_back(num("shared_pct_" + tile_name(kTileSizes[i]), v, 1));
    }
    table.row(scene, std::move(cells));
  }
  std::vector<Cell> average = {label("Average")};
  for (std::size_t i = 0; i < kTileSizes.size(); ++i) {
    average.push_back(num("shared_pct_" + tile_name(kTileSizes[i]),
                          sums[i] / static_cast<double>(algo_scene_names().size()), 1));
  }
  table.row("Average", std::move(average));
  return {"table1",
          {table},
          "paper reference (Table I):\n"
          "  Train 94.4/89.0/79.7/66.0  Truck 89.0/79.2/64.7/47.7\n"
          "  Drjohnson 91.4/83.9/71.3/54.0  Playroom 91.3/83.8/71.7/54.7\n"
          "  Average 91.5/84.0/71.9/55.6"};
}

Figure fig3(const Passes& p) {
  Figure figure{"fig3", {},
                "paper reference (A6000): preprocessing + sorting fall and rasterization rises\n"
                "with tile size; 16x16 is usually the fastest overall, occasionally 32x32."};
  for (const Boundary boundary : kFig3Boundaries) {
    Table table{std::string("Fig. 3 (") + to_string(boundary) +
                    "): stage runtime breakdown [ms, this CPU]",
                {"scene", "tile", "preprocess", "sort", "raster", "total"},
                {}};
    for (const std::string& scene : algo_scene_names()) {
      for (const int tile : kTileSizes) {
        std::vector<Cell> cells = {label(scene), label(tile_name(tile))};
        add_stage_cells(cells, p.baselines.at(case_of(boundary, scene, tile)));
        table.row(case_of(boundary, scene, tile), std::move(cells));
      }
    }
    figure.tables.push_back(std::move(table));
  }
  return figure;
}

/// Figs. 5 and 7: one binning statistic per tile size and the 8x8 vs 64x64
/// ratio, one table per boundary.
Figure tile_sweep(const Passes& p, const std::string& name, const std::string& number,
                  const std::string& what, double BinStats::*stat, const std::string& field,
                  int digits, bool large_over_small, std::string reference) {
  const std::string ratio = large_over_small ? "64x64/8x8" : "8x8/64x64";
  Figure figure{name, {}, std::move(reference)};
  for (const Boundary boundary : kFig3Boundaries) {
    Table table{number + " (" + to_string(boundary) + "): " + what,
                {"scene", "8x8", "16x16", "32x32", "64x64", ratio},
                {}};
    for (const std::string& scene : algo_scene_names()) {
      std::vector<Cell> cells = {label(scene)};
      for (const int tile : kTileSizes) {
        cells.push_back(
            num(field + "_" + tile_name(tile), p.bins.at(case_of(boundary, scene, tile)).*stat,
                digits));
      }
      const double fine = p.bins.at(case_of(boundary, scene, kTileSizes.front())).*stat;
      const double coarse = p.bins.at(case_of(boundary, scene, kTileSizes.back())).*stat;
      cells.push_back(num(large_over_small ? "ratio_64x64_8x8" : "ratio_8x8_64x64",
                          large_over_small ? coarse / fine : fine / coarse, digits));
      table.row(std::string(to_string(boundary)) + "/" + scene, std::move(cells));
    }
    figure.tables.push_back(std::move(table));
  }
  return figure;
}

Figure fig5(const Passes& p) {
  return tile_sweep(p, "fig5", "Fig. 5", "avg intersecting tiles per Gaussian",
                    &BinStats::tiles_per_gaussian, "tiles_per_gaussian", 2, false,
                    "paper reference: max ratio 18.3x (AABB, playroom), 7.09x (Ellipse);\n"
                    "tiles/Gaussian grows steeply as tiles shrink in both plots.");
}

Figure fig7(const Passes& p) {
  return tile_sweep(p, "fig7", "Fig. 7", "avg Gaussians per pixel",
                    &BinStats::gaussians_per_pixel, "gaussians_per_pixel", 1, true,
                    "paper reference: per-pixel workload in the 10^3 range at large tiles;\n"
                    "max ratio 4.79x (AABB) and 10.6x (truck, Ellipse).");
}

double gstg_ms(const Passes& p, const std::string& scene, const GsTgConfig& config) {
  return p.gstg.at(scene + "/" + gstg_name(config)).total_ms();
}

Figure fig11(const Passes& p) {
  Table table{"Fig. 11: GS-TG speedup vs tile+group size (GPU-order, vs baseline 16 Ellipse)",
              scene_header("combo"),
              {}};
  for (const auto& [tile, group] : kCombos) {
    GsTgConfig config;
    config.tile_size = tile;
    config.group_size = group;
    const std::string combo = std::to_string(tile) + "+" + std::to_string(group);
    std::vector<Cell> cells = {label(combo)};
    for (const std::string& scene : algo_scene_names()) {
      const double base = p.baselines.at(case_of(Boundary::kEllipse, scene, 16)).total_ms();
      cells.push_back(num("speedup_" + scene, base / gstg_ms(p, scene, config), 2));
    }
    table.row(combo, std::move(cells));
  }
  return {"fig11",
          {table},
          "paper reference: speedups around 0.9-1.3 with 16+64 fastest in most cases."};
}

Figure fig12(const Passes& p) {
  Table table{"Fig. 12: speedup vs baseline AABB (GPU-order, tile 16, group 64)",
              scene_header("config"),
              {}};
  const auto add = [&](const std::string& key, const auto& ms_of) {
    std::vector<Cell> cells = {label(key)};
    for (const std::string& scene : algo_scene_names()) {
      const double base = p.baselines.at(case_of(Boundary::kAabb, scene, 16)).total_ms();
      cells.push_back(num("speedup_" + scene, base / ms_of(scene), 2));
    }
    table.row(key, std::move(cells));
  };
  for (const Boundary b : kBoundaries) {
    add(std::string("Base+") + to_string(b), [&](const std::string& scene) {
      return p.baselines.at(case_of(b, scene, 16)).total_ms();
    });
  }
  for (const GsTgConfig& config : gstg_configs()) {
    if (config.tile_size != 16 || config.group_size != 64) continue;
    add(std::string("Ours ") + to_string(config.group_boundary) + "+" +
            to_string(config.mask_boundary),
        [&](const std::string& scene) { return gstg_ms(p, scene, config); });
  }
  return {"fig12",
          {table},
          "paper reference: Ellipse+Ellipse on top; each Ours(X+X) beats Base+X;\n"
          "combinations with any boundary method remain beneficial."};
}

Figure fig13(const Passes& p) {
  Table table{"Fig. 13: Train stage breakdown [ms, this CPU], Ellipse boundary",
              {"config", "preprocess", "sort", "raster", "total"},
              {}};
  for (const int tile : {16, 32, 64}) {
    std::vector<Cell> cells = {label(tile_name(tile))};
    add_stage_cells(cells, p.baselines.at(case_of(Boundary::kEllipse, "train", tile)));
    table.row(tile_name(tile), std::move(cells));
  }
  // GPU order: bitmask generation is serialized into preprocessing.
  StageTimes ours = p.gstg.at("train/" + gstg_name(GsTgConfig{}));
  ours.preprocess_ms += ours.bitmask_ms;
  ours.bitmask_ms = 0.0;
  std::vector<Cell> cells = {label("Ours(16+64)")};
  add_stage_cells(cells, ours);
  table.row("Ours(16+64)", std::move(cells));
  return {"fig13",
          {table},
          "paper reference: Ours sorts like 64x64, rasterizes like 16x16; GPU-order\n"
          "preprocessing of Ours exceeds the baseline because bitmask generation\n"
          "cannot overlap sorting on SIMT hardware (resolved by the accelerator)."};
}

/// Figs. 14 and 15: a per-design ratio over the baseline accelerator per
/// scene, two GS-TG detail columns, and the geometric mean.
template <typename Ratio, typename Details>
Table accelerator_table(const Passes& p, std::string title, std::vector<std::string> header,
                        const std::string& ratio_field, const Ratio& ratio,
                        const Details& details) {
  Table table{std::move(title), std::move(header), {}};
  std::vector<double> gscore, gstg;
  for (const std::string& scene : all_scene_names()) {
    const benchutil::SceneSims& s = p.sims.at(scene);
    gscore.push_back(ratio(s.baseline, s.gscore));
    gstg.push_back(ratio(s.baseline, s.gstg));
    std::vector<Cell> cells = {label(scene), label("1.00"),
                               num("gscore_" + ratio_field, gscore.back(), 2),
                               num("gstg_" + ratio_field, gstg.back(), 2)};
    for (Cell& cell : details(s.gstg)) cells.push_back(std::move(cell));
    table.row(scene, std::move(cells));
  }
  table.row("geomean", {label("geomean"), label("1.00"),
                        num("gscore_" + ratio_field, geometric_mean(gscore), 2),
                        num("gstg_" + ratio_field, geometric_mean(gstg), 2), label("-"),
                        label("-")});
  return table;
}

Figure fig14(const Passes& p) {
  return {"fig14",
          {accelerator_table(
              p, "Fig. 14: speedup normalised to the baseline accelerator",
              {"scene", "Baseline", "GSCore", "GS-TG", "GS-TG cycles", "bottleneck"}, "speedup",
              [](const SimReport& base, const SimReport& r) {
                return base.total_cycles / r.total_cycles;
              },
              [](const SimReport& r) {
                return std::vector<Cell>{num("gstg_total_cycles", r.total_cycles, 0),
                                         str("gstg_bottleneck", r.bottleneck)};
              })},
          "paper reference: GS-TG geomean 1.33x vs baseline, max 1.58x at residence;\n"
          "GS-TG up to 1.54x vs GSCore. Larger scenes benefit more (scaled runs\n"
          "compress list lengths, so bench-scale gains sit below paper scale)."};
}

Figure fig15(const Passes& p) {
  return {"fig15",
          {accelerator_table(
              p, "Fig. 15: energy efficiency normalised to the baseline accelerator",
              {"scene", "Baseline", "GSCore", "GS-TG", "GS-TG uJ/frame", "DRAM share"},
              "efficiency",
              [](const SimReport& base, const SimReport& r) {
                return base.energy.total_j() / r.energy.total_j();
              },
              [](const SimReport& r) {
                return std::vector<Cell>{
                    num("gstg_uj_per_frame", r.energy.total_j() * 1e6, 2),
                    num("gstg_dram_share_pct", 100.0 * r.energy.dram_j / r.energy.total_j(), 0,
                        "%")};
              })},
          "paper reference: GS-TG geomean 2.12x vs baseline, max 2.97x at residence.\n"
          "Savings come from shorter runtime plus group-shared feature fetches\n"
          "cutting DRAM traffic."};
}

Figure table3() {
  const HwConfig hw;
  Table modules{"Table III: hardware configuration (28nm, as modelled)",
                {"module", "instances", "area [mm2]", "power [W]"},
                {}};
  const std::pair<const char*, const ModuleSpec*> specs[] = {
      {"PM", &hw.pm}, {"BGM", &hw.bgm}, {"GSM", &hw.gsm}, {"RM", &hw.rm},
      {"Buffer (4x2x42KB)", &hw.buffer}};
  for (const auto& [name, m] : specs) {
    modules.row(name, {label(name), num("instances", m->instances, 0),
                       num("area_mm2", m->area_mm2, 3), num("power_w", m->power_w, 3)});
  }
  modules.row("Total", {label("Total"), label("-"), num("area_mm2", hw.total_area_mm2(), 3),
                        num("power_w", hw.total_power_w(), 3)});

  Table operating{"Table III: operating point", {"parameter", "value"}, {}};
  operating.row("frequency_mhz",
                {label("operating frequency [MHz]"), num("value", hw.frequency_hz / 1e6, 0)});
  operating.row("dram_gb_per_s",
                {label("DRAM bandwidth [GB/s]"), num("value", hw.dram_bytes_per_second / 1e9, 1)});
  operating.row("dram_bytes_per_cycle",
                {label("DRAM bandwidth [B/cycle]"), num("value", hw.dram_bytes_per_cycle(), 1)});
  operating.row("dram_pj_per_byte",
                {label("DRAM energy [pJ/byte]"), num("value", hw.dram_pj_per_byte, 0)});
  operating.row("bytes_per_scalar", {label("datapath fp16 [bytes/scalar]"),
                                     num("value", static_cast<double>(hw.bytes_per_scalar), 0)});
  const bool matches = std::abs(hw.total_area_mm2() - 3.984) < 1e-9 &&
                       std::abs(hw.total_power_w() - 1.063) < 1e-9;
  operating.row("totals_match_paper", {label("totals == paper (3.984 mm2, 1.063 W)"),
                                       str("value", matches ? "yes" : "no")});
  return {"table3",
          {modules, operating},
          "paper reference (Table III): 28nm at 1 GHz, total area 3.984 mm2,\n"
          "total power 1.063 W."};
}

Figure ablation(const Passes& p) {
  const FrameWorkload& workload = p.sims.at("truck").gstg_workload;
  const HwConfig hw;
  const SimReport overlap = simulate_frame(workload, gstg_pipeline_model(), hw);

  Table a{"Ablation (a): BGM/GSM overlap (truck scene)",
          {"execution", "total cycles", "sort-stage cycles", "speedup"},
          {}};
  PipelineModel sequential_model = gstg_pipeline_model();
  sequential_model.sequential_bgm = true;  // GPU-order: BGM then GSM
  const SimReport sequential = simulate_frame(workload, sequential_model, hw);
  a.row("overlap/sequential",
        {label("sequential (GPU order)"), num("total_cycles", sequential.total_cycles, 0),
         num("sort_stage_cycles", sequential.sort_stage_cycles, 0), label("1.00")});
  a.row("overlap/overlapped",
        {label("overlapped (GS-TG HW)"), num("total_cycles", overlap.total_cycles, 0),
         num("sort_stage_cycles", overlap.sort_stage_cycles, 0),
         num("speedup", sequential.total_cycles / overlap.total_cycles, 3)});

  Table b{"Ablation (b): RM bitmask filter width", {"width", "total cycles", "vs width 8"}, {}};
  HwConfig hw_width = hw;
  for (const int width : {1, 2, 4, 8, 16, 32}) {
    hw_width.rm_filter_width = width;
    const SimReport r = simulate_frame(workload, gstg_pipeline_model(), hw_width);
    b.row("filter_width/" + std::to_string(width),
          {label(std::to_string(width)), num("total_cycles", r.total_cycles, 0),
           num("vs_width_8", overlap.total_cycles / r.total_cycles, 3)});
  }

  Table d{"Ablation (d): DRAM bandwidth sensitivity",
          {"bandwidth [GB/s]", "total cycles", "bottleneck"},
          {}};
  HwConfig hw_dram = hw;
  for (const double gbps : {6.4, 12.8, 25.6, 51.2, 102.4}) {
    hw_dram.dram_bytes_per_second = gbps * 1e9;
    const SimReport r = simulate_frame(workload, gstg_pipeline_model(), hw_dram);
    d.row("dram_gbps/" + format_fixed(gbps, 1),
          {label(format_fixed(gbps, 1)), num("total_cycles", r.total_cycles, 0),
           str("bottleneck", r.bottleneck)});
  }
  return {"ablation",
          {a, b, d},
          "note: ablation (c), dispatch policy, is implicit — simulate_frame uses\n"
          "cost-ordered dispatch; see tests/sim/test_accel.cpp for the imbalance case."};
}

Figure fp16(const Passes& p) {
  Table table{"fp16 model quantisation fidelity (baseline Ellipse, tile 16)",
              {"scene", "PSNR [dB]", "SSIM", "max SH err", "pairs fp16/fp32"},
              {}};
  for (const std::string& scene : algo_scene_names()) table.row(scene, p.fp16.at(scene));
  return {"fp16",
          {table},
          "interpretation: PSNR well above ~40 dB and SSIM ~1 mean the fp16\n"
          "conversion the paper applies (section VI-A) is visually lossless; the\n"
          "pairs ratio shows the binning workload is essentially unchanged."};
}

Figure rho(const Passes& p) {
  Table table{"footprint extent: 3-sigma (paper) vs opacity-aware (FlashGS)",
              {"scene", "pairs 3s", "pairs op", "ratio", "alpha 3s", "alpha op", "max|diff|"},
              {}};
  for (const std::string& scene : algo_scene_names()) table.row(scene, p.rho.at(scene));
  return {"rho",
          {table},
          "interpretation: the opacity-aware extent trims translucent splats'\n"
          "footprints (fewer pairs / alpha evaluations) while near-opaque splats\n"
          "grow slightly beyond 3-sigma; the image difference stays within the\n"
          "sub-1/255 band either bound permits. Both extents compose with GS-TG."};
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const CliArgs args(argc, argv);
    args.require_known({"out-dir", "repeat"});
    const std::string out_dir = args.get("out-dir", ".");
    const int repeat = args.get_int("repeat", 3);

    benchutil::print_scale_banner("bench_paper: GS-TG section VI figures and tables");
    Passes passes;
    for (const std::string& name : algo_scene_names()) {
      std::printf("bench_paper: rendering %s\n", name.c_str());
      run_scene(name, repeat, passes);
    }
    for (const std::string& name : all_scene_names()) {
      std::printf("bench_paper: simulating %s (baseline / GSCore / GS-TG)\n", name.c_str());
      passes.sims.emplace(name, benchutil::simulate_scene(name));
    }
    std::printf("\n");

    const std::string path = out_dir + "/BENCH_paper.json";
    JsonWriter json(path);
    json.open_object();
    benchutil::write_header(json, "paper");
    for (const Figure& figure :
         {table2(), table1(passes), fig3(passes), fig5(passes), fig7(passes), fig11(passes),
          fig12(passes), fig13(passes), fig14(passes), fig15(passes), table3(),
          ablation(passes), fp16(passes), rho(passes)}) {
      emit(figure, json);
    }
    json.value("peak_rss_bytes", benchutil::peak_rss_bytes());
    json.close_object();
    json.finish();
    std::printf("bench_paper: wrote %s\n", path.c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_paper: %s\n", e.what());
    return 1;
  }
}
