// Async render service: the multi-client serving layer on top of the
// persistent renderer (core/renderer.h) and the temporal frame-sequence
// renderer (temporal/temporal_renderer.h).
//
//   client threads ──submit()──▶ bounded queue ──▶ scheduler workers
//                                 (backpressure)     │  batch compatible
//                                                    │  requests (same
//                                                    │  scene + session)
//                                                    ▼
//                  SceneCache (load-once, refcounted, LRU)
//                  per-session TemporalRenderer  (cross-frame sort reuse)
//                  per-worker persistent Renderer (stateless requests)
//
// Error contract: every failure a client can cause — malformed request,
// unknown scene, garbled/truncated PLY, queue overflow, post-shutdown
// submit — resolves that client's future with a *typed* RenderResponse
// (ServiceStatus + message). Nothing a single request carries can take
// down the process; worker exceptions are caught per request.
//
// Correctness contract: response images are bit-identical to a sequential
// render_gstg(cloud, camera, config) of the same request. Session requests
// run through a per-session TemporalRenderer, which is pixel-exact by
// construction; ServiceConfig::verify re-renders every response through the
// one-shot pipeline and counts mismatches (the kVerify-style audit gate —
// bench_service and the service tests run with it on).
//
// Fast tier: RenderRequest::fast_tier routes a stateless request through a
// per-worker sortless renderer (PipelineMode::kSortless, temporal off) —
// lossy relative to the exact pipeline but deterministic and
// order-independent, so the verify gate still bit-compares fast-tier
// responses against a one-shot render under the same sortless config.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "camera/camera.h"
#include "core/renderer.h"
#include "render/metrics.h"
#include "service/scene_cache.h"
#include "temporal/temporal_renderer.h"

namespace gstg {

/// Typed outcome of one render request.
enum class ServiceStatus : std::uint8_t {
  kOk,
  kInvalidRequest,   ///< request validation failed (bad camera, empty scene id)
  kSceneLoadFailed,  ///< unknown scene name or malformed/truncated PLY
  kQueueFull,        ///< try_submit on a full queue (backpressure)
  kShutdown,         ///< submitted after shutdown()
  kInternalError,    ///< unexpected worker failure or verify-gate mismatch
};

[[nodiscard]] const char* to_string(ServiceStatus status);

/// One client render request. `session` groups requests into a camera
/// stream: requests of the same session are rendered in submission order by
/// a per-session TemporalRenderer, so consecutive frames get cross-frame
/// group-sort reuse. session 0 means stateless (no ordering, no temporal
/// cache).
struct RenderRequest {
  std::string scene;  ///< synthetic scene name or a .ply path (SceneCache key)
  Camera camera;
  std::uint64_t session = 0;
  /// Opt into the sortless fast tier: the frame renders through
  /// PipelineMode::kSortless (zero group-sort pairs, order-independent
  /// blending — lossy, gated by the committed per-scene PSNR/SSIM floor
  /// instead of bit-identity). Fast-tier requests must be stateless
  /// (session == 0); combining the two is a typed kInvalidRequest, because
  /// the temporal cache reuses sorted orders that the fast tier never
  /// produces.
  bool fast_tier = false;
};

/// Resolution of one request: a typed status (with message on failure) and,
/// on kOk, the rendered frame.
struct RenderResponse {
  ServiceStatus status = ServiceStatus::kOk;
  std::string error;
  Framebuffer image{1, 1};
  RenderCounters counters;
  TemporalStats temporal;  ///< per-frame reuse stats (zero for stateless requests)

  [[nodiscard]] bool ok() const { return status == ServiceStatus::kOk; }
};

/// Service configuration. Zero-valued knobs resolve from the environment
/// (strictly validated, see common/runconfig.h) or a built-in default at
/// construction time.
struct ServiceConfig {
  /// Render configuration shared by every request. `temporal` applies to
  /// session streams (default kReuse — the reason sessions exist); threads
  /// defaults to 1 so parallelism comes from the service workers.
  GsTgConfig render;
  std::size_t workers = 0;         ///< scheduler threads; 0 = GSTG_SERVICE_WORKERS or min(hw, 4)
  std::size_t queue_capacity = 0;  ///< bounded queue size; 0 = GSTG_SERVICE_QUEUE or 64
  std::size_t scene_capacity = 0;  ///< resident scene-cache slots; 0 = GSTG_SERVICE_SCENES or 4
  std::size_t max_batch = 0;       ///< batch-size cap; 0 = GSTG_SERVICE_BATCH or 16
  std::size_t session_capacity = 0;  ///< resident session streams; 0 = GSTG_SERVICE_SESSIONS or 64
  bool verify = false;             ///< re-render every response via render_gstg and compare
  /// Starts the process-global trace collector (src/telemetry/trace.h) so
  /// the service's queue-wait/batch/render/verify spans are recorded;
  /// GSTG_TRACE=<path> does the same and names the JSON written at exit.
  /// Purely observational — responses and stats() are identical either way.
  bool trace = false;

  ServiceConfig();

  /// Fills every zero knob from its environment override / default,
  /// applies the GSTG_* mode knobs to `render` (resolve_from_env) and
  /// validates; throws std::invalid_argument (ConfigError for a malformed
  /// variable) on inconsistent values.
  [[nodiscard]] ServiceConfig resolved() const;
};

/// The async multi-client render service. Construction spawns the worker
/// pool; destruction (or shutdown()) drains queued requests and joins.
class RenderService {
 public:
  using Loader = SceneCache::Loader;

  /// Throws std::invalid_argument on an invalid configuration. `loader`
  /// overrides scene loading (tests inject failing/blocking loaders);
  /// empty selects load_scene_or_ply.
  explicit RenderService(const ServiceConfig& config, Loader loader = {});
  ~RenderService();

  RenderService(const RenderService&) = delete;
  RenderService& operator=(const RenderService&) = delete;

  /// Enqueues a request; the future resolves when it is rendered or
  /// rejected. Blocks while the queue is full (backpressure) until space
  /// frees up or the service shuts down. Invalid requests resolve
  /// immediately with kInvalidRequest.
  std::future<RenderResponse> submit(RenderRequest request);

  /// Like submit, but a full queue resolves immediately with kQueueFull
  /// instead of blocking.
  std::future<RenderResponse> try_submit(RenderRequest request);

  /// Stops accepting requests, drains the queue, joins the workers.
  /// Idempotent; the destructor calls it.
  void shutdown();

  /// Snapshot of the operating counters (queue/batch/cache/reuse/verify).
  [[nodiscard]] ServiceStats stats() const;

  [[nodiscard]] const ServiceConfig& config() const { return config_; }

 private:
  struct Pending {
    RenderRequest request;
    std::promise<RenderResponse> promise;
    /// telemetry::now_ns() at queue entry; the dispatching worker emits the
    /// [enqueue, dispatch) interval as that request's queue_wait span.
    std::uint64_t enqueued_ns = 0;
  };

  /// One client camera stream: its temporal renderer (cross-frame cache),
  /// persistent frame context, and the scene it is currently bound to. The
  /// busy flag serializes the stream: at most one worker renders a given
  /// session at a time, in queue order. Each session holds cloud-sized
  /// temporal scratch, so the resident set is capped by session_capacity:
  /// creating a session beyond the cap evicts the least-recently-dispatched
  /// *idle* session (an evicted id simply cold-starts on its next request —
  /// a stream of unique session ids costs reuse, never memory).
  struct Session {
    std::unique_ptr<TemporalRenderer> renderer;
    FrameContext ctx;
    std::string scene_key;
    bool busy = false;
    std::uint64_t last_used = 0;  ///< dispatch-clock stamp for LRU eviction
  };

  std::future<RenderResponse> enqueue(RenderRequest&& request, bool block);
  [[nodiscard]] bool eligible_request_queued() const;  // caller holds mutex_
  std::vector<Pending> take_batch();                   // caller holds mutex_
  void worker_loop();
  RenderResponse render_one(const RenderRequest& request, const GaussianCloud& cloud,
                            Session* session, Renderer& stateless, FrameContext& stateless_ctx,
                            Renderer& fast, FrameContext& fast_ctx);

  ServiceConfig config_;
  GsTgConfig fast_config_;  ///< the fast tier's renderer config, resolved once
  SceneCache cache_;
  mutable std::mutex mutex_;
  std::condition_variable work_cv_;   // workers: request queued / session freed / stopping
  std::condition_variable space_cv_;  // submitters: queue space freed / stopping
  std::deque<Pending> queue_;
  std::map<std::uint64_t, Session> sessions_;
  std::uint64_t dispatch_clock_ = 0;
  ServiceStats stats_;
  bool stopping_ = false;
  std::vector<std::thread> workers_;
};

/// Validates a request against the service limits without submitting it.
/// Returns true when valid; otherwise fills `error` with the reason
/// (non-finite camera intrinsics/pose, image size beyond kMaxImageDim,
/// empty scene id, fast_tier combined with a session stream).
inline constexpr int kMaxImageDim = 16384;
[[nodiscard]] bool validate_render_request(const RenderRequest& request, std::string& error);

}  // namespace gstg
