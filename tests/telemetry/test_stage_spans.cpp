// The stage spans are the only stage clock: every StageTimes field of a
// frame equals the summed durations of that frame's stage spans in the
// exported trace (the attribution table of core/renderer.h), sortless
// frames charge no sort time, and the residency/pipeline audits, which run
// after the raster, are in no field — their reference frame fills only
// ctx.reference->times.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "core/renderer.h"
#include "gaussian/compressed.h"
#include "telemetry/trace.h"
#include "temporal/temporal_renderer.h"
#include "test_helpers.h"

namespace gstg {
namespace {

using testutil::make_camera;
using testutil::make_random_cloud;

/// One exported span and its children on the same thread.
struct Span {
  std::string name;
  double begin_us = 0.0;
  double end_us = 0.0;
  std::vector<std::size_t> children;

  [[nodiscard]] double ms() const { return (end_us - begin_us) * 1e-3; }
};

/// The B/E spans of an exported trace, nested per thread.
struct ParsedTrace {
  std::vector<Span> spans;
  std::vector<std::size_t> roots;
};

ParsedTrace parse_trace(const std::string& path) {
  ParsedTrace trace;
  std::vector<std::pair<std::size_t, std::vector<std::size_t>>> open;  // tid -> stack
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    char name[64];
    char ph = 0;
    double ts = 0.0;
    int pid = 0;
    std::size_t tid = 0;
    if (std::sscanf(line.c_str(), "{\"name\": \"%63[^\"]\", \"ph\": \"%c\", \"ts\": %lf, "
                    "\"pid\": %d, \"tid\": %zu}", name, &ph, &ts, &pid, &tid) != 5 ||
        (ph != 'B' && ph != 'E')) {
      continue;
    }
    std::vector<std::size_t>* stack = nullptr;
    for (auto& [t, s] : open) {
      if (t == tid) stack = &s;
    }
    if (stack == nullptr) stack = &open.emplace_back(tid, std::vector<std::size_t>{}).second;
    if (ph == 'B') {
      const std::size_t id = trace.spans.size();
      trace.spans.push_back({name, ts, ts, {}});
      (stack->empty() ? trace.roots : trace.spans[stack->back()].children).push_back(id);
      stack->push_back(id);
    } else {
      EXPECT_FALSE(stack->empty()) << "unmatched E for " << name;
      if (stack->empty()) continue;
      Span& span = trace.spans[stack->back()];
      EXPECT_EQ(span.name, name) << "E does not close the innermost open span";
      span.end_us = ts;
      stack->pop_back();
    }
  }
  return trace;
}

/// Traces `render` and returns its export, parsed.
template <class Fn>
ParsedTrace trace_of(const Fn& render) {
  const std::string path = ::testing::TempDir() + "gstg_stage_spans.json";
  telemetry::TraceSession& session = telemetry::TraceSession::global();
  session.start();
  render();
  session.stop();
  session.write(path);
  ParsedTrace trace = parse_trace(path);
  std::remove(path.c_str());
  return trace;
}

/// The one root `frame` span of a traced frame.
const Span& frame_span(const ParsedTrace& trace) {
  const Span* frame = nullptr;
  for (std::size_t id : trace.roots) {
    if (trace.spans[id].name != "frame") continue;
    EXPECT_EQ(frame, nullptr) << "more than one traced frame";
    frame = &trace.spans[id];
  }
  EXPECT_NE(frame, nullptr) << "no frame span in the trace";
  static const Span kEmpty;
  return frame != nullptr ? *frame : kEmpty;
}

/// Sums the stage spans among `parent`'s children into their fields (the
/// table of core/renderer.h) and expects `times` to match within 1 us. An
/// `audit` before the raster is the temporal one (sort_ms); one after it
/// is the residency/pipeline audit, is in no field, and is returned
/// (nullptr when there is none).
const Span* expect_times_are_spans(const ParsedTrace& trace, const Span& parent,
                                   const StageTimes& times, const GsTgConfig& config) {
  StageTimes sums;
  const Span* post_raster_audit = nullptr;
  bool after_raster = false;
  for (std::size_t id : parent.children) {
    const Span& span = trace.spans[id];
    if (span.name == "preprocess" || span.name == "binning") {
      sums.preprocess_ms += span.ms();
    } else if (span.name == "bitmask") {
      (config.group_test_is_tile_test() ? sums.preprocess_ms : sums.bitmask_ms) += span.ms();
    } else if (span.name == "sort_groups" || span.name == "temporal_sort" ||
               span.name == "snapshot_cache" || (span.name == "audit" && !after_raster)) {
      sums.sort_ms += span.ms();
    } else if (span.name == "raster") {
      sums.raster_ms += span.ms();
      after_raster = true;
    } else if (span.name == "audit") {
      EXPECT_EQ(post_raster_audit, nullptr) << "two audits after the raster";
      post_raster_audit = &span;
    } else {
      ADD_FAILURE() << "stage span '" << span.name << "' has no StageTimes field";
    }
  }
  constexpr double kMs1us = 1e-3;
  EXPECT_NEAR(times.preprocess_ms, sums.preprocess_ms, kMs1us);
  EXPECT_NEAR(times.bitmask_ms, sums.bitmask_ms, kMs1us);
  EXPECT_NEAR(times.sort_ms, sums.sort_ms, kMs1us);
  EXPECT_NEAR(times.raster_ms, sums.raster_ms, kMs1us);
  EXPECT_GT(times.preprocess_ms, 0.0) << "no stage span was timed";
  if (config.group_test_is_tile_test()) {
    EXPECT_EQ(times.bitmask_ms, 0.0);
  }
  if (config.pipeline != PipelineMode::kExact) {
    EXPECT_EQ(times.sort_ms, 0.0) << "a sortless frame charged sort time";
  }
  return post_raster_audit;
}

/// The reference frame of a residency/pipeline audit writes only
/// ctx.reference->times, and the audit takes longer than the tolerance, so
/// a field holding it would have failed expect_times_are_spans.
void expect_audit_outside_fields(const ParsedTrace& trace, const Span* audit,
                                 const FrameContext& ctx, const GsTgConfig& config) {
  ASSERT_NE(audit, nullptr) << "kVerify frame traced no audit";
  ASSERT_NE(ctx.reference, nullptr);
  EXPECT_GT(audit->ms(), 1e-3);
  ASSERT_EQ(audit->children.size(), 1u);
  const Span& reference = trace.spans[audit->children[0]];
  EXPECT_EQ(reference.name, "frame");
  GsTgConfig reference_config = config;
  reference_config.pipeline = PipelineMode::kExact;
  EXPECT_EQ(expect_times_are_spans(trace, reference, ctx.reference->times, reference_config),
            nullptr);
}

GsTgConfig config_with(PipelineMode pipeline, std::size_t threads = 2) {
  GsTgConfig config;
  config.pipeline = pipeline;
  config.threads = threads;
  return config;
}

void expect_renderer_frame(const GsTgConfig& config) {
  const GaussianCloud cloud = make_random_cloud(700, 31);
  const Camera camera = make_camera();
  const Renderer renderer(config);
  FrameContext ctx;
  const ParsedTrace trace = trace_of([&] { renderer.render(cloud, camera, ctx); });
  EXPECT_EQ(expect_times_are_spans(trace, frame_span(trace), ctx.times, config), nullptr);
}

TEST(StageSpans, ExactFrameTimesAreItsSpans) {
  expect_renderer_frame(config_with(PipelineMode::kExact));
}

TEST(StageSpans, SortlessFrameChargesNoSort) {
  expect_renderer_frame(config_with(PipelineMode::kSortless));
}

TEST(StageSpans, TileTestGroupingChargesMasksToPreprocess) {
  // r = 1 with one boundary method: the per-tile baseline frame.
  GsTgConfig config = config_with(PipelineMode::kExact, 1);
  config.group_size = config.tile_size;
  ASSERT_TRUE(config.group_test_is_tile_test());
  expect_renderer_frame(config);
}

TEST(StageSpans, ResidencyAndPipelineAuditsAreInNoField) {
  const CompressedCloud cloud = CompressedCloud::encode(make_random_cloud(700, 32));
  const Camera camera = make_camera();
  GsTgConfig config = config_with(PipelineMode::kVerify);
  config.residency = ResidencyMode::kVerify;
  const Renderer renderer(config);
  FrameContext ctx;
  const ParsedTrace trace = trace_of([&] { renderer.render(cloud, camera, ctx); });
  const Span* audit = expect_times_are_spans(trace, frame_span(trace), ctx.times, config);
  expect_audit_outside_fields(trace, audit, ctx, config);
}

/// Renders two nearby views through one TemporalRenderer, tracing each
/// frame on its own, and checks both.
void expect_temporal_frames(const GsTgConfig& config) {
  const GaussianCloud cloud = make_random_cloud(700, 33);
  const Camera cold = make_camera();
  const Camera warm = Camera::from_fov(256, 192, 1.2f,
                                       look_at({0.05f, 0.0f, -5.0f}, {0.05f, 0.0f, 0.0f}));
  TemporalRenderer renderer(config);
  FrameContext ctx;
  for (const Camera* camera : {&cold, &warm}) {
    const ParsedTrace trace = trace_of([&] { renderer.render(cloud, *camera, ctx); });
    const Span& frame = frame_span(trace);
    EXPECT_EQ(expect_times_are_spans(trace, frame, ctx.times, config), nullptr);
    if (config.pipeline != PipelineMode::kExact) continue;
    // The cold frame's public order_groups span nests inside temporal_sort,
    // so it is counted once, through temporal_sort.
    bool nested_sort = false;
    for (std::size_t id : frame.children) {
      if (trace.spans[id].name != "temporal_sort") continue;
      for (std::size_t child : trace.spans[id].children) {
        nested_sort = nested_sort || trace.spans[child].name == "sort_groups";
      }
    }
    EXPECT_EQ(nested_sort, camera == &cold);
    if (camera == &warm) {
      const TemporalStats& stats = renderer.last_frame();
      EXPECT_GT(stats.groups_reused + stats.groups_patched, 0u) << "the warm frame reused nothing";
    }
    if (config.temporal == TemporalMode::kVerify) {
      // The temporal audit's reference ordering fills only ctx.reference.
      for (std::size_t id : frame.children) {
        if (trace.spans[id].name != "audit") continue;
        ASSERT_NE(ctx.reference, nullptr);
        expect_times_are_spans(trace, trace.spans[id], ctx.reference->times, config);
      }
    }
  }
}

TEST(StageSpans, TemporalColdAndWarmFramesAreTheirSpans) {
  GsTgConfig config = config_with(PipelineMode::kExact);
  config.temporal = TemporalMode::kReuse;
  expect_temporal_frames(config);
}

TEST(StageSpans, TemporalVerifyAuditIsSortTime) {
  GsTgConfig config = config_with(PipelineMode::kExact);
  config.temporal = TemporalMode::kVerify;
  expect_temporal_frames(config);
}

TEST(StageSpans, TemporalSortlessChargesNoSort) {
  GsTgConfig config = config_with(PipelineMode::kSortless);
  config.temporal = TemporalMode::kReuse;
  expect_temporal_frames(config);
}

}  // namespace
}  // namespace gstg
