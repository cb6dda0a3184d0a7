// Simulated multi-client render server: N client threads each stream a
// tour-sampled camera path through the async RenderService under their own
// session (cross-frame sort reuse), while a misbehaving client throws
// malformed requests at the same service and gets typed errors back. Prints
// per-client latency percentiles, the service operating stats, and
// cross-checks a sample of responses bit-identical to one-shot render_gstg.
//
// Run:  ./render_server [--scene=playroom] [--clients=4] [--frames=12]
//                       [--workers=4] [--queue=64] [--verify]
#include <algorithm>
#include <cstdio>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "common/cli.h"
#include "common/stats.h"
#include "common/table.h"
#include "common/timer.h"
#include "core/pipeline.h"
#include "dataset/load_scene.h"
#include "render/framebuffer.h"
#include "scene/scene.h"
#include "service/render_service.h"
#include "telemetry/metrics.h"
#include "temporal/camera_path.h"

int main(int argc, char** argv) {
  using namespace gstg;
  try {
    const CliArgs args(argc, argv);
    args.require_known({"scene", "clients", "frames", "workers", "queue", "verify"});
    const std::string scene_name = args.get("scene", "playroom");
    const std::size_t clients = args.get_size("clients", 4);
    const int frames = args.get_int("frames", 12);
    if (clients == 0) throw std::invalid_argument("--clients must be >= 1");
    if (frames < 1) throw std::invalid_argument("--frames must be >= 1");

    // --scene accepts a synthetic recipe name or a dataset path (a COLMAP
    // model dir, a transforms.json scene, or a .ply checkpoint — though a
    // bare checkpoint carries no cameras to stream). The service resolves
    // the same key through its scene cache, which routes through the same
    // format-sniffing loader.
    GaussianCloud cloud;
    std::vector<Camera> cameras;
    if (is_dataset_path(scene_name)) {
      LoadedScene loaded = load_scene(scene_name);
      if (loaded.cameras.empty()) {
        throw std::invalid_argument("scene '" + scene_name + "' (" + loaded.source +
                                    ") carries no cameras; use a COLMAP or transforms dataset "
                                    "or a synthetic scene name");
      }
      cloud = std::move(loaded.cloud);
      cameras.assign(loaded.cameras.begin(),
                     loaded.cameras.begin() + std::min<std::size_t>(loaded.cameras.size(),
                                                                    static_cast<std::size_t>(
                                                                        frames)));
    } else {
      Scene scene = generate_scene(scene_name);
      const FrameSequence sequence = tour_frames(orbit_path(scene, 0.3f, 4), 2, 2);
      cameras.assign(sequence.cameras.begin(),
                     sequence.cameras.begin() +
                         std::min<std::size_t>(sequence.frame_count(),
                                               static_cast<std::size_t>(frames)));
      cloud = std::move(scene.cloud);
    }

    ServiceConfig config;  // threads=1, temporal=kReuse
    config.workers = args.get_size("workers", 4);
    config.queue_capacity = args.get_size("queue", 64);
    config.verify = args.has("verify");

    std::printf("render_server: '%s' (%zu gaussians, %dx%d), %zu clients x %zu frames, "
                "%zu workers%s\n\n",
                scene_name.c_str(), cloud.size(), cameras.front().width(),
                cameras.front().height(), clients, cameras.size(), config.workers,
                config.verify ? ", verify gate ON" : "");

    RenderService service(config);

    // One misbehaving client: malformed requests must come back as typed
    // errors while everyone else renders on.
    const RenderResponse bad_scene =
        service.submit(RenderRequest{"", cameras.front(), 0}).get();
    const RenderResponse unknown =
        service.submit(RenderRequest{"not-a-scene", cameras.front(), 0}).get();
    std::printf("malformed probes: empty scene -> %s (\"%s\"), unknown scene -> %s\n",
                to_string(bad_scene.status), bad_scene.error.c_str(), to_string(unknown.status));
    if (bad_scene.ok() || unknown.ok()) {
      std::fprintf(stderr, "render_server: malformed requests were not rejected\n");
      return 1;
    }

    // Client fleet: session s streams the whole camera path in order.
    struct ClientResult {
      std::vector<double> latency_ms;
      std::size_t ok = 0;
      std::size_t reused_groups = 0;
    };
    std::vector<ClientResult> results(clients);
    Timer wall;
    std::vector<std::thread> fleet;
    fleet.reserve(clients);
    for (std::size_t c = 0; c < clients; ++c) {
      fleet.emplace_back([&, c] {
        ClientResult& mine = results[c];
        for (const Camera& camera : cameras) {
          Timer latency;
          RenderResponse response =
              service.submit(RenderRequest{scene_name, camera, static_cast<std::uint64_t>(c + 1)})
                  .get();
          mine.latency_ms.push_back(latency.lap_ms());
          if (response.ok()) ++mine.ok;
          mine.reused_groups += response.temporal.groups_reused;
        }
      });
    }
    for (std::thread& t : fleet) t.join();
    const double wall_ms = wall.lap_ms();

    TextTable table("per-client results");
    table.set_header({"client", "ok", "p50 ms", "p95 ms", "p99 ms", "reused groups"});
    bool all_ok = true;
    std::vector<double> all_latencies;
    for (std::size_t c = 0; c < clients; ++c) {
      ClientResult& r = results[c];
      all_latencies.insert(all_latencies.end(), r.latency_ms.begin(), r.latency_ms.end());
      const PercentileSummary pct = summarize_percentiles(std::move(r.latency_ms));
      all_ok = all_ok && r.ok == cameras.size();
      table.add_row({std::to_string(c + 1), std::to_string(r.ok) + "/" +
                     std::to_string(cameras.size()),
                     format_fixed(pct.p50, 1), format_fixed(pct.p95, 1),
                     format_fixed(pct.p99, 1), std::to_string(r.reused_groups)});
    }
    table.print();

    // Fleet-wide percentiles, twice: exactly (sorted samples) and through
    // the metrics registry's log-bucketed service.render_ms histogram the
    // workers populated — the bucketed numbers must bracket the exact ones
    // within the bucket growth factor.
    const PercentileSummary overall = summarize_percentiles(std::move(all_latencies));
    const LatencyHistogram render_hist =
        telemetry::MetricsRegistry::global().latency("service.render_ms");
    std::printf("\nclient-observed latency: p50 %.1f ms | p95 %.1f ms | p99 %.1f ms "
                "(%zu samples)\n",
                overall.p50, overall.p95, overall.p99, overall.count);
    std::printf("service render histogram: p50 %.1f ms | p95 %.1f ms | p99 %.1f ms "
                "(%llu samples, mean %.1f ms)\n",
                render_hist.quantile(0.50), render_hist.quantile(0.95),
                render_hist.quantile(0.99),
                static_cast<unsigned long long>(render_hist.total()), render_hist.mean());

    // Spot-check bit-identity against the one-shot renderer.
    GsTgConfig reference_config = service.config().render;  // as resolved at start-up
    reference_config.temporal = TemporalMode::kOff;
    const RenderResult oneshot = render_gstg(cloud, cameras.front(), reference_config);
    const RenderResponse again =
        service.submit(RenderRequest{scene_name, cameras.front(), 0}).get();
    const bool identical = again.ok() && max_abs_diff(oneshot.image, again.image) == 0.0f;

    const ServiceStats stats = service.stats();
    std::printf("\n%zu frames in %.1f ms (%.1f fps) | batches %zu (max %zu) | peak queue %zu\n",
                clients * cameras.size(), wall_ms,
                wall_ms > 0.0 ? 1000.0 * static_cast<double>(clients * cameras.size()) / wall_ms
                              : 0.0,
                stats.batches, stats.max_batch, stats.peak_queue_depth);
    std::printf("scene cache: %zu hits / %zu misses | reuse pairs %.1f%% | verify mismatches %zu\n",
                stats.cache_hits, stats.cache_misses, 100.0 * stats.reuse_pair_ratio(),
                stats.verify_mismatches);
    std::printf("spot check vs render_gstg: %s\n",
                identical ? "bit-identical" : "DIVERGED");

    const bool success = all_ok && identical && stats.verify_mismatches == 0;
    if (!success) std::fprintf(stderr, "render_server: FAILURE\n");
    return success ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
