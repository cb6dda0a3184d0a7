// bench_service: multi-client serving driver for the async render service.
// Per scene it drives N simulated clients (each a session streaming a
// tour-sampled orbit) against one RenderService, checks every concurrent
// response bit-identical to a per-request sequential render_gstg, measures
// the 1 -> 4 client throughput scaling, runs the verify-gate audit, and
// probes the malformed-input paths (bad request, unknown scene, garbled
// PLY) for typed rejections. Writes BENCH_service.json — gated against the
// committed baseline by scripts/check_bench.py --service.
//
// Like run_all, this only needs the project libraries, so it always builds.
// An identity/verify/typed-error violation exits with code 2 so CI's bench
// step goes red.
//
// Run:  ./bench_service [--out-dir=.] [--scenes=train,truck] [--workers=4]
//                       [--frames=14] [--verify-frames=6]
#include <cstdio>
#include <fstream>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "common/cli.h"
#include "common/runconfig.h"
#include "common/stats.h"
#include "common/table.h"
#include "common/timer.h"
#include "core/pipeline.h"
#include "json_writer.h"
#include "render/framebuffer.h"
#include "service/render_service.h"
#include "telemetry/trace.h"
#include "temporal/camera_path.h"

namespace {

using namespace gstg;
using benchutil::JsonWriter;
using benchutil::cached_scene;

/// One multi-client run against a fresh service: every client streams the
/// same frame sequence under its own session. Returns wall-clock and
/// whether every response was ok and bit-identical to `reference`.
struct ClientRunResult {
  double wall_ms = 0.0;
  bool identical = true;
  ServiceStats stats;
  std::vector<double> latency_ms;  ///< per-request submit -> resolve, all clients
};

ClientRunResult run_clients(const std::string& scene_key, const std::vector<Camera>& cameras,
                            const std::vector<Framebuffer>& reference, std::size_t clients,
                            const ServiceConfig& config) {
  RenderService service(config);
  ClientRunResult result;
  std::vector<char> client_ok(clients, 1);

  // Warm the scene cache (and the stateless render path) outside the timed
  // window: the run measures steady-state serving throughput, not the
  // one-time synthetic-scene generation the first request triggers.
  {
    const RenderResponse warmup = service.submit(RenderRequest{scene_key, cameras.front(), 0}).get();
    if (!warmup.ok() || max_abs_diff(reference.front(), warmup.image) != 0.0f) {
      result.identical = false;
    }
  }

  Timer timer;
  std::vector<std::vector<double>> latencies(clients);
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (std::size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      std::vector<std::future<RenderResponse>> futures;
      std::vector<std::uint64_t> submitted_ns;
      futures.reserve(cameras.size());
      submitted_ns.reserve(cameras.size());
      for (const Camera& camera : cameras) {
        submitted_ns.push_back(telemetry::now_ns());
        futures.push_back(
            service.submit(RenderRequest{scene_key, camera, static_cast<std::uint64_t>(c + 1)}));
      }
      for (std::size_t f = 0; f < futures.size(); ++f) {
        RenderResponse response = futures[f].get();
        latencies[c].push_back(
            static_cast<double>(telemetry::now_ns() - submitted_ns[f]) / 1e6);
        if (!response.ok() || max_abs_diff(reference[f], response.image) != 0.0f) {
          client_ok[c] = 0;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  result.wall_ms = timer.lap_ms();
  for (const char ok : client_ok) result.identical = result.identical && ok != 0;
  for (std::vector<double>& client : latencies) {
    result.latency_ms.insert(result.latency_ms.end(), client.begin(), client.end());
  }
  result.stats = service.stats();
  return result;
}

/// Malformed-input probes: each must resolve with the expected typed status
/// (and the process must simply keep going).
bool probe_typed_rejections(const ServiceConfig& config, const Camera& camera,
                            const std::string& out_dir) {
  RenderService service(config);
  bool ok = true;

  const RenderResponse invalid = service.submit(RenderRequest{"", camera, 0}).get();
  ok = ok && invalid.status == ServiceStatus::kInvalidRequest && !invalid.error.empty();

  const RenderResponse unknown =
      service.submit(RenderRequest{"no-such-scene", camera, 0}).get();
  ok = ok && unknown.status == ServiceStatus::kSceneLoadFailed && !unknown.error.empty();

  // The garbled probe file lives next to the JSON output (never the source
  // checkout) and is removed as soon as the response resolves.
  const std::string path = out_dir + "/bench_service_garbled.ply";
  {
    std::ofstream out(path, std::ios::binary);
    out << "ply\nformat binary_little_endian 1.0\nelement vertex zzz\nend_header\n";
  }
  const RenderResponse garbled = service.submit(RenderRequest{path, camera, 0}).get();
  std::remove(path.c_str());
  ok = ok && garbled.status == ServiceStatus::kSceneLoadFailed &&
       garbled.error.find("PLY") != std::string::npos;
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const CliArgs args(argc, argv);
    args.require_known({"out-dir", "scenes", "workers", "frames", "verify-frames"});
    const std::string out_dir = args.get("out-dir", ".");
    const std::size_t workers = args.get_size("workers", 4);
    const int frames = args.get_int("frames", 14);
    const int verify_frames = args.get_int("verify-frames", 6);
    if (workers == 0) throw std::invalid_argument("--workers must be >= 1");
    if (frames < 1 || verify_frames < 1) {
      throw std::invalid_argument("--frames and --verify-frames must be >= 1");
    }
    const std::vector<std::string> scenes = benchutil::requested_scenes(args);

    benchutil::print_scale_banner("bench_service: async multi-client render service");

    ServiceConfig config;  // threads=1, temporal kReuse: service-layer defaults
    config.workers = workers;
    config.queue_capacity = 64;
    config.scene_capacity = 4;
    config.max_batch = 8;

    bool correctness_ok = true;
    JsonWriter json(out_dir + "/BENCH_service.json");
    json.open_object();
    json.value("bench", "render_service");
    const RunScale scale = run_scale_from_env();
    json.open_object("scale");
    json.value("resolution_divisor", scale.resolution_divisor);
    json.value("gaussian_divisor", scale.gaussian_divisor);
    json.close_object();
    json.value("workers", workers);
    json.value("frames_per_client", frames);
    // Wall-clock scaling is bounded by the physical cores: ~1.0x is the
    // expected (and honest) result on a single-core machine, >1.5x needs
    // >= 4 cores. Recorded so the scaling numbers are interpretable.
    const unsigned cores = std::thread::hardware_concurrency();
    json.value("hardware_concurrency", static_cast<std::size_t>(cores));
    if (cores < 4) {
      std::printf(
          "bench_service: note — %u core(s) available; 1 -> 4 client scaling is "
          "core-bound (expect >1.5x only on >= 4 cores)\n",
          cores);
    }
    json.open_array("scenes");

    TextTable table("service throughput (frames/client: " + std::to_string(frames) + ", workers: " +
                    std::to_string(workers) + ")");
    table.set_header({"scene", "1-client fps", "4-client fps", "scaling", "reuse pairs",
                      "exact", "verify", "typed errors"});

    for (const std::string& name : scenes) {
      const Scene& scene = cached_scene(name);
      std::printf("bench_service: %s (%zu gaussians, %dx%d)\n", name.c_str(), scene.cloud.size(),
                  scene.render_width, scene.render_height);

      // Client stream: tour-sampled orbit (hold frames are where cross-frame
      // reuse pays; move frames carry real motion).
      const FrameSequence sequence = tour_frames(orbit_path(scene, 0.25f, 4), 2, 2);
      std::vector<Camera> cameras(sequence.cameras.begin(),
                                  sequence.cameras.begin() +
                                      std::min<std::size_t>(sequence.frame_count(),
                                                            static_cast<std::size_t>(frames)));

      // Sequential reference: per-request render_gstg — both the timing
      // anchor and the bit-identity oracle for every concurrent response.
      GsTgConfig reference_config = config.render;
      reference_config.temporal = TemporalMode::kOff;
      std::vector<Framebuffer> reference;
      reference.reserve(cameras.size());
      Timer timer;
      for (const Camera& camera : cameras) {
        reference.push_back(render_gstg(scene.cloud, camera, reference_config).image);
      }
      const double sequential_ms = timer.lap_ms();

      const ClientRunResult one = run_clients(name, cameras, reference, 1, config);
      const ClientRunResult four = run_clients(name, cameras, reference, 4, config);
      const double fps_one =
          one.wall_ms > 0.0 ? 1000.0 * static_cast<double>(cameras.size()) / one.wall_ms : 0.0;
      const double fps_four =
          four.wall_ms > 0.0 ? 4000.0 * static_cast<double>(cameras.size()) / four.wall_ms : 0.0;
      const double scaling = fps_one > 0.0 ? fps_four / fps_one : 0.0;

      // Verify-gate audit: shorter stream, every response re-rendered
      // through the one-shot pipeline inside the service.
      ServiceConfig verify_config = config;
      verify_config.verify = true;
      const std::vector<Camera> verify_cameras(
          cameras.begin(),
          cameras.begin() + std::min<std::size_t>(cameras.size(),
                                                  static_cast<std::size_t>(verify_frames)));
      const std::vector<Framebuffer> verify_reference(
          reference.begin(), reference.begin() + static_cast<std::ptrdiff_t>(verify_cameras.size()));
      const ClientRunResult verify = run_clients(name, verify_cameras, verify_reference, 2,
                                                 verify_config);
      const bool verify_ok = verify.identical && verify.stats.verify_mismatches == 0;

      const bool typed_ok = probe_typed_rejections(config, cameras.front(), out_dir);
      const bool identical = one.identical && four.identical;
      // The multi-client scaling claim is enforceable only where the
      // hardware can express it: on >= 4 cores, 1 -> 4 clients must scale
      // beyond 1.5x (the acceptance bar, with headroom below the ~4x
      // ideal); on fewer cores the gate records itself as inactive.
      const bool scaling_gate_active = cores >= 4;
      const bool scaling_ok = !scaling_gate_active || scaling > 1.5;
      if (!identical || !verify_ok || !typed_ok || !scaling_ok) {
        correctness_ok = false;
        std::fprintf(stderr, "bench_service: FAILURE on %s (%s)\n", name.c_str(),
                     !identical   ? "image diff vs sequential"
                     : !verify_ok ? "verify-gate mismatch"
                     : !typed_ok  ? "missing typed error"
                                  : "1->4 client scaling below 1.5x on a >=4-core machine");
      }

      table.add_row({name, format_fixed(fps_one, 1), format_fixed(fps_four, 1),
                     format_fixed(scaling, 2) + "x",
                     format_fixed(100.0 * four.stats.reuse_pair_ratio(), 1) + "%",
                     identical ? "yes" : "NO", verify_ok ? "yes" : "NO",
                     typed_ok ? "yes" : "NO"});

      json.open_object();
      json.value("scene", name);
      json.value("gaussians", scene.cloud.size());
      json.value("frames_per_client", cameras.size());
      json.value("sequential_ms", sequential_ms);
      json.value("wall_ms_1client", one.wall_ms);
      json.value("wall_ms_4client", four.wall_ms);
      // Shared nearest-rank helper (common/stats.h) over the 4-client run's
      // per-request submit -> resolve latencies.
      const PercentileSummary latency = summarize_percentiles(four.latency_ms);
      json.value("latency_p50_ms", latency.p50);
      json.value("latency_p95_ms", latency.p95);
      json.value("latency_p99_ms", latency.p99);
      json.value("throughput_fps_1client", fps_one);
      json.value("throughput_fps_4client", fps_four);
      json.value("scaling_1_to_4", scaling);
      json.value("requests_completed", four.stats.requests_completed);
      json.value("requests_failed", four.stats.requests_failed);
      json.value("cache_misses", four.stats.cache_misses);
      json.value("batches", four.stats.batches);
      json.value("max_batch", four.stats.max_batch);
      json.value("peak_queue_depth", four.stats.peak_queue_depth);
      json.value("sessions", four.stats.sessions);
      json.value("reuse_pairs", four.stats.reuse_pairs);
      json.value("sorted_pairs", four.stats.sorted_pairs);
      json.value("reuse_pair_ratio", four.stats.reuse_pair_ratio());
      json.value_bool("identical_to_sequential", identical);
      json.value_bool("verify_ok", verify_ok);
      json.value_bool("malformed_rejected", typed_ok);
      json.value_bool("scaling_gate_active", scaling_gate_active);
      json.value_bool("scaling_ok", scaling_ok);
      json.close_object();
    }
    json.close_array();
    json.value("peak_rss_bytes", benchutil::peak_rss_bytes());
    json.close_object();
    json.finish();
    table.print();
    std::printf("bench_service: wrote %s/BENCH_service.json\n", out_dir.c_str());
    return correctness_ok ? 0 : 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_service: %s\n", e.what());
    return 1;
  }
}
