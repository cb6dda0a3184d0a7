#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>

#include "inputs.h"
#include "core/pipeline.h"
#include "render/pipeline.h"
#include "temporal/temporal_renderer.h"
#include "workloads.h"

namespace perfbench {

namespace {

const char* const kTourScene = "train";
constexpr gstg::RunScale kTourScale{8, 64};

/// Arrival rate, a constant never calibrated per run. Two workers at ~35 ms
/// a frame sustain ~57 rps on a 4-vCPU x86 VM. At under a quarter of that,
/// queueing stays light even when neighbours on a shared host slow the
/// renders, so latency reflects the service rather than machine noise.
constexpr double kRateRps = 12.5;

/// Latency limit of slo_share.
constexpr double kSloMs = 100.0;

/// How long the waiter sleeps on the oldest outstanding response before it
/// sweeps all of them: the resolution of completion timestamps.
constexpr auto kPollInterval = std::chrono::microseconds(200);

/// What the open loop observed for one request.
struct Observed {
  Clock::time_point due;
  Clock::time_point issued;    ///< submit() called
  Clock::time_point accepted;  ///< submit() returned
  Clock::time_point answered;  ///< response seen by the waiter
  bool ok = false;
  std::uint64_t hash = 0;
};

struct OpenLoop {
  std::vector<Observed> requests;
  gstg::TemporalStats temporal;  ///< merged over the session responses
  std::size_t backlog_end = 0;   ///< requests unanswered when the last one was issued
};

/// Issues every request of `in` at its due time (open loop) from this
/// thread, while one waiter thread timestamps the responses as they arrive.
OpenLoop open_loop(gstg::RenderService& service, const TourInputs& in) {
  const std::size_t n = in.requests.size();
  OpenLoop result;
  result.requests.resize(n);
  std::vector<Observed>& obs = result.requests;

  std::mutex mutex;
  std::condition_variable cv;
  std::deque<std::pair<std::size_t, std::future<gstg::RenderResponse>>> inbox;
  bool issuing_done = false;
  std::size_t answered = 0;  // guarded by mutex
  std::exception_ptr waiter_error;

  std::thread waiter([&] {
    try {
      std::vector<std::pair<std::size_t, std::future<gstg::RenderResponse>>> pending;
      for (;;) {
        {
          std::unique_lock<std::mutex> lock(mutex);
          if (pending.empty()) cv.wait(lock, [&] { return !inbox.empty() || issuing_done; });
          while (!inbox.empty()) {
            pending.push_back(std::move(inbox.front()));
            inbox.pop_front();
          }
          if (pending.empty()) return;  // issuing_done and nothing outstanding
        }
        pending.front().second.wait_for(kPollInterval);
        const auto now = Clock::now();
        std::size_t swept = 0;
        for (auto it = pending.begin(); it != pending.end();) {
          if (it->second.wait_for(std::chrono::seconds(0)) != std::future_status::ready) {
            ++it;
            continue;
          }
          const gstg::RenderResponse response = it->second.get();
          Observed& o = obs[it->first];
          o.answered = now;
          o.ok = response.ok();
          if (o.ok) o.hash = image_hash(response.image);
          result.temporal.merge(response.temporal);
          it = pending.erase(it);
          ++swept;
        }
        const std::lock_guard<std::mutex> lock(mutex);
        answered += swept;
      }
    } catch (...) {
      waiter_error = std::current_exception();
    }
  });

  const auto start = Clock::now() + std::chrono::milliseconds(10);
  try {
    for (std::size_t i = 0; i < n; ++i) {
      const TourRequest& r = in.requests[i];
      Observed& o = obs[i];
      o.due = start + std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double, std::milli>(r.due_ms));
      std::this_thread::sleep_until(o.due);
      gstg::RenderRequest request{kTourScene, in.cameras[r.camera], r.session, false};
      o.issued = Clock::now();
      std::future<gstg::RenderResponse> future = service.submit(std::move(request));
      o.accepted = Clock::now();
      {
        const std::lock_guard<std::mutex> lock(mutex);
        inbox.emplace_back(i, std::move(future));
      }
      cv.notify_one();
    }
  } catch (...) {
    {
      const std::lock_guard<std::mutex> lock(mutex);
      issuing_done = true;
    }
    cv.notify_one();
    waiter.join();
    throw;
  }
  {
    const std::lock_guard<std::mutex> lock(mutex);
    result.backlog_end = n - answered;
    issuing_done = true;
  }
  cv.notify_one();
  waiter.join();
  if (waiter_error) std::rethrow_exception(waiter_error);
  return result;
}

/// Per-request render times of the request stream replayed without the
/// service: all requests, and the session ones alone.
struct Replay {
  std::vector<double> all_ms;
  std::vector<double> temporal_ms;
};

/// Renders the request stream in stream order without the service: session
/// frames through one TemporalRenderer per session, stateless ones through a
/// Renderer. A prefix of the stream, bounded to `budget_s`. Each image must
/// match its camera's reference hash.
Replay replay_stream(const gstg::GsTgConfig& config, const gstg::GaussianCloud& cloud,
                     const TourInputs& in, const std::vector<std::uint64_t>& reference,
                     double budget_s, Trace& trace, Outcome& out) {
  const gstg::Renderer stateless(config);
  gstg::FrameContext stateless_ctx;
  std::map<std::uint64_t, std::pair<gstg::TemporalRenderer, gstg::FrameContext>> sessions;
  Replay replay;
  const auto start = Clock::now();
  for (std::size_t i = 0; i < in.requests.size(); ++i) {
    if (i >= 10 && ms_between(start, Clock::now()) >= budget_s * 1000.0) break;
    const TourRequest& r = in.requests[i];
    const gstg::Camera& camera = in.cameras[r.camera];
    auto session = sessions.find(r.session);
    if (r.session != 0 && session == sessions.end()) {
      session = sessions
                    .try_emplace(r.session, gstg::TemporalRenderer(config), gstg::FrameContext())
                    .first;
    }
    const gstg::Framebuffer* image = nullptr;
    const auto t0 = Clock::now();
    if (r.session != 0) {
      auto& [renderer, ctx] = session->second;
      const int span = trace.begin("temporal.render", -1, static_cast<std::int64_t>(i));
      renderer.render(cloud, camera, ctx);
      trace.end(span);
      image = &ctx.image;
      replay.temporal_ms.push_back(ms_between(t0, Clock::now()));
    } else {
      const int span = trace.begin("core.render", -1, static_cast<std::int64_t>(i));
      stateless.render(cloud, camera, stateless_ctx);
      trace.end(span);
      image = &stateless_ctx.image;
    }
    replay.all_ms.push_back(ms_between(t0, Clock::now()));
    if (image_hash(*image) != reference[r.camera]) {
      out.mismatch("replayed request " + std::to_string(i) + " differs from the one-shot render");
    }
  }
  return replay;
}

}  // namespace

Outcome run_tour(const RunArgs& args) {
  Outcome out;
  Trace trace;
  const gstg::ServiceConfig service_cfg = service_config();
  const gstg::GsTgConfig config = gstg_config();

  // Set-up: scene synthesis, service construction (its workers start) and a
  // warm-up that loads the scene into the service's cache and renders on
  // both workers; repeated, the last service is kept.
  std::optional<gstg::Scene> scene;
  std::unique_ptr<gstg::RenderService> service;
  const double setup_s = median_setup_s(kSetupReps, [&](int rep) {
    service.reset();
    const int span = args.trace ? trace.begin("scene.generate", -1, rep) : -1;
    scene.emplace(gstg::generate_scene(kTourScene, kTourScale));
    if (args.trace) trace.end(span);
    service = std::make_unique<gstg::RenderService>(
        service_cfg, [&scene](const std::string&) { return scene->cloud; });
    std::vector<std::future<gstg::RenderResponse>> warm;
    for (int i = 0; i < 2; ++i) {
      warm.push_back(service->submit({kTourScene, scene->camera, 0, false}));
    }
    for (auto& f : warm) {
      if (!f.get().ok()) throw std::runtime_error("service warm-up request failed");
    }
  });

  const std::size_t count = std::max(
      min_samples_for(0.98), static_cast<std::size_t>(std::ceil(kRateRps * args.seconds)));
  const TourInputs in = tour_inputs(*scene, args.seed, kRateRps, count);

  const gstg::ServiceStats before = service->stats();
  const OpenLoop loop = open_loop(*service, in);
  const gstg::ServiceStats after = service->stats();
  service.reset();

  // References: every distinct camera rendered directly, GS-TG and baseline
  // interleaved. Renderer::render is what render_gstg runs, so its image
  // hash is the one-shot reference for responses with that camera.
  Rng rng(args.seed ^ 0x9e3779b97f4a7c15ULL);
  const std::vector<std::size_t> order = shuffled(in.cameras.size(), rng);
  std::vector<std::uint64_t> reference(in.cameras.size());
  FrameSamples direct;
  std::vector<gstg::Camera> staged_views;
  if (!args.trace) {
    const gstg::Renderer renderer(config);
    gstg::FrameContext ctx;
    gstg::Framebuffer image(1, 1);
    for (std::size_t k = 0; k < order.size(); ++k) {
      time_pair(renderer, ctx, scene->cloud, in.cameras[order[k]], k % 2 == 1, image, direct, out);
      reference[order[k]] = image_hash(image);
    }
  } else {
    for (std::size_t c = 0; c < in.cameras.size(); ++c) {
      reference[c] = image_hash(gstg::render_gstg(scene->cloud, in.cameras[c], config).image);
    }
    for (const std::size_t c : order) staged_views.push_back(in.cameras[c]);
  }

  std::vector<double> latency_ms;
  std::vector<double> late_ms;
  std::vector<double> submit_ms;
  out.attempted = in.requests.size();
  for (std::size_t i = 0; i < in.requests.size(); ++i) {
    const Observed& o = loop.requests[i];
    late_ms.push_back(ms_between(o.due, o.issued));
    submit_ms.push_back(ms_between(o.issued, o.accepted));
    if (!o.ok) {
      ++out.failed;
      latency_ms.push_back(-1.0);
      continue;
    }
    latency_ms.push_back(ms_between(o.due, o.answered));
    if (o.hash != reference[in.requests[i].camera]) {
      out.mismatch("response " + std::to_string(i) + " differs from the one-shot render");
    }
  }

  if (!args.trace) {
    const std::vector<SimView> sims = run_sim(*scene, config, nullptr, out);
    Report& r = out.report;
    r.add("setup_s", setup_s, "s");
    r.add("peak_rss_mb", peak_rss_mb(), "MiB");
    r.add("ok_share",
          static_cast<double>(out.attempted - out.failed) / static_cast<double>(out.attempted),
          "ratio");
    add_frame_metrics(r, direct);
    add_sim_metrics(r, sims);
    add_request_metrics(r, latency_ms, kSloMs);
    std::fprintf(stderr, "perfbench: service_tour: %zu requests, generator late p98 %.3f ms, "
                 "backlog at end %zu\n", in.requests.size(), percentile(late_ms, 0.98),
                 loop.backlog_end);
    return out;
  }

  // Traced run. Requests as async spans, submit() under each.
  for (std::size_t i = 0; i < in.requests.size(); ++i) {
    const Observed& o = loop.requests[i];
    const int id = trace.add_async("service.request", o.due, o.ok ? o.answered : o.accepted, -1,
                                   static_cast<std::int64_t>(i));
    trace.add_async("service.submit", o.issued, o.accepted, id, static_cast<std::int64_t>(i));
  }

  const Replay replay = replay_stream(service_cfg.render, scene->cloud, in, reference,
                                      args.seconds / 8.0, trace, out);

  const StagedSamples staged =
      staged_pass(config, scene->cloud, staged_views, args.seconds / 8.0, trace, out);
  const std::vector<SimView> sims = run_sim(*scene, config, &trace, out);

  Report& r = out.report;
  r.add("scene.generate_ms", trace.median_ms("scene.generate"), "ms");
  add_render_core_layers(r, trace, staged);

  const gstg::TemporalStats& t = loop.temporal;
  const std::size_t decided = t.groups_reused + t.groups_patched + t.groups_resorted;
  r.add("temporal.reuse_pair_ratio", t.sorts_avoided_ratio(), "ratio");
  r.add("temporal.groups_resorted_share",
        decided ? static_cast<double>(t.groups_resorted) / static_cast<double>(decided) : 0.0,
        "ratio");
  r.add("temporal.frame_ms_p50", median(replay.temporal_ms), "ms");

  std::vector<double> answered_ms;
  for (const double ms : latency_ms) {
    if (ms >= 0.0) answered_ms.push_back(ms);
  }
  const double render_p50 = median(replay.all_ms);
  const std::size_t batches = after.batches - before.batches;
  const std::size_t dispatched = (after.requests_completed - before.requests_completed) +
                                 (after.requests_failed - before.requests_failed);
  const std::size_t lookups = (after.cache_hits - before.cache_hits) +
                              (after.cache_misses - before.cache_misses);
  r.add("service.req_ms_p90", tail_percentile(answered_ms, 0.90), "ms");
  r.add("service.req_ms_p98", tail_percentile(answered_ms, 0.98), "ms");
  r.add("service.render_ms_p50", render_p50, "ms");
  r.add("service.wait_ms_p50", median(answered_ms) - render_p50, "ms");
  r.add("service.submit_ms_p98", tail_percentile(submit_ms, 0.98), "ms");
  r.add("service.batch_size_mean",
        batches ? static_cast<double>(dispatched) / static_cast<double>(batches) : 0.0, "count");
  r.add("service.peak_queue_depth", static_cast<double>(after.peak_queue_depth), "count");
  r.add("service.cache_hit_ratio",
        lookups ? static_cast<double>(after.cache_hits - before.cache_hits) /
                      static_cast<double>(lookups)
                : 0.0,
        "ratio");
  r.add("loadgen.late_ms_p98", tail_percentile(late_ms, 0.98), "ms");
  r.add("loadgen.backlog_end", static_cast<double>(loop.backlog_end), "count");
  add_sim_layers(r, sims);
  write_trace(trace, args);
  return out;
}

}  // namespace perfbench
