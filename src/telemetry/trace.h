// Low-overhead scoped tracing: per-thread preallocated ring buffers of
// completed spans, drained by a TraceSession into Chrome trace-event JSON
// (loads directly in Perfetto / chrome://tracing).
//
// Hot-path contract (the reason this layer may be threaded through every
// pipeline stage):
//   * disabled  — GSTG_SPAN costs one relaxed atomic load and a predictable
//     branch; nothing else happens, nothing allocates. GSTG_STAGE adds the
//     two steady-clock reads its StageTimes field needs;
//   * enabled   — the owning thread appends a fixed-size record into its own
//     ring with plain stores plus one release store of the count. No locks,
//     no allocation in the steady state (a thread's ring is allocated once,
//     on its first span of a session);
//   * overflow  — a full ring drops the span and counts the drop. Recording
//     never blocks and never grows a buffer mid-frame.
//
// The stage spans are the frame's only stage clock: each GSTG_STAGE adds
// its duration to one StageTimes field (docs/ARCHITECTURE.md lists which).
// Telemetry is observational by design: spans never touch RenderCounters or
// images, so every determinism/bit-identity invariant holds with tracing on
// (tests/telemetry/test_trace_determinism.cpp asserts this).
//
// Layering: telemetry depends only on common. core/render/temporal/service
// all link it; the collector is process-global so one session sees every
// layer's spans regardless of which subsystem started it.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>

#include "common/annotations.h"

namespace gstg::telemetry {

/// What one ring slot records. Spans carry [begin, end) and must nest with
/// the calling thread's other spans (RAII scopes do by construction); async
/// spans carry intervals that may overlap arbitrarily (a queue wait whose
/// begin was stamped on another thread) and export as Chrome 'b'/'e' async
/// pairs instead of the stack-disciplined 'B'/'E'. Counter samples carry a
/// value at one instant (Chrome 'C', e.g. the service queue depth over
/// time); instants mark a point (frame boundaries).
enum class EventKind : std::uint8_t { kSpan, kAsyncSpan, kCounter, kInstant };

/// One completed event. `name` must be a string with static storage
/// duration (the ring stores the pointer, not the characters) — the
/// GSTG_SPAN macro and the emit helpers all take string literals.
struct TraceEvent {
  const char* name = nullptr;
  std::uint64_t begin_ns = 0;  ///< kSpan: start; kCounter/kInstant: sample time
  std::uint64_t end_ns = 0;    ///< kSpan only
  double value = 0.0;          ///< kCounter only
  EventKind kind = EventKind::kSpan;
};

/// Nanoseconds on the process-wide steady timebase every event uses.
/// Monotonic; zero is captured once per process, so timestamps taken before
/// a span is emitted (e.g. a request's enqueue time) stay comparable.
[[nodiscard]] std::uint64_t now_ns();

/// True while a TraceSession is collecting. The one relaxed load GSTG_SPAN
/// pays when tracing is off.
[[nodiscard]] inline bool enabled();

namespace detail {
inline std::atomic<bool> g_enabled{false};
}  // namespace detail

inline bool enabled() { return detail::g_enabled.load(std::memory_order_relaxed); }

/// Appends a completed span to the calling thread's ring (no-op when
/// disabled). `name` must have static storage duration. The interval MUST
/// nest with the thread's other spans (GSTG_SPAN scopes guarantee this);
/// for intervals that do not, use emit_async_span.
GSTG_HOT_NOALLOC
void emit_span(const char* name, std::uint64_t begin_ns, std::uint64_t end_ns);

/// Appends a completed interval that need not nest with the calling
/// thread's scoped spans — e.g. a request's queue wait, whose begin was
/// stamped at enqueue time on the client thread while this worker was mid
/// render. Exported as a Chrome async 'b'/'e' pair with a unique id, which
/// Perfetto draws on its own track.
GSTG_HOT_NOALLOC
void emit_async_span(const char* name, std::uint64_t begin_ns, std::uint64_t end_ns);

/// Appends a counter sample (Chrome 'C' event) at now_ns().
GSTG_HOT_NOALLOC
void emit_counter(const char* name, double value);

/// Appends an instant marker (Chrome 'i' event) at now_ns().
GSTG_HOT_NOALLOC
void emit_instant(const char* name);

/// Names the calling thread in the exported trace (thread_name metadata).
/// Safe to call whether or not tracing is enabled; the name sticks to the
/// thread's ring for the rest of the process. Call it from worker threads
/// whose spans would otherwise show up as "thread-N".
void set_thread_name(const std::string& name);

/// RAII span: records [construction, destruction) under `name`. A stage
/// scope also gets `stage_ms`, a StageTimes field: it then stamps entry and
/// exit whether or not tracing is on and adds the elapsed milliseconds to
/// that field, so a field is exactly the sum of its exported spans. The
/// macros below are the normal spelling.
class SpanScope {
 public:
  explicit SpanScope(const char* name, double* stage_ms = nullptr) : stage_ms_(stage_ms) {
    if (enabled()) name_ = name;
    if (name_ != nullptr || stage_ms_ != nullptr) begin_ns_ = now_ns();
  }
  ~SpanScope() {
    if (name_ == nullptr && stage_ms_ == nullptr) return;
    const std::uint64_t end_ns = now_ns();
    if (stage_ms_ != nullptr) *stage_ms_ += static_cast<double>(end_ns - begin_ns_) * 1e-6;
    if (name_ != nullptr) emit_span(name_, begin_ns_, end_ns);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  const char* name_ = nullptr;  ///< nullptr = tracing was off at entry
  double* stage_ms_ = nullptr;  ///< nullptr = no StageTimes field
  std::uint64_t begin_ns_ = 0;
};

/// Collector configuration. `ring_capacity` is events per thread,
/// preallocated when a thread records its first event of the session.
struct TraceOptions {
  std::string path;                    ///< JSON output ("" = caller writes explicitly)
  std::size_t ring_capacity = 65536;   ///< slots per thread ring
  std::string process_name = "gstg";   ///< process_name metadata in the export
};

/// Aggregate collector state, snapshotable while recording.
struct TraceStats {
  std::size_t threads = 0;   ///< rings registered this session
  std::size_t recorded = 0;  ///< events currently held across rings
  std::size_t dropped = 0;   ///< events dropped on ring overflow
};

/// The process-global trace collector. start() clears every ring and opens
/// the recording window; stop() closes it; write() (or stop_and_write())
/// drains the rings into trace-event JSON. One session at a time; starting
/// while active restarts (previous unwritten events are discarded).
class TraceSession {
 public:
  /// The singleton every instrumented layer records into.
  static TraceSession& global();

  /// Begins collecting under `options`. Thread rings from a previous
  /// session are reused (cleared); capacity changes apply to rings
  /// allocated after the call.
  void start(const TraceOptions& options = {});

  /// Stops collecting (recorded events stay available for write()).
  void stop();

  /// Writes the recorded events as Chrome trace-event JSON. Returns the
  /// number of events written; throws TelemetryError (telemetry/error.h)
  /// when the file cannot be opened. Spans become matched B/E pairs (properly nested per
  /// thread), counters 'C' events, instants 'i' events, plus
  /// process_name/thread_name metadata.
  std::size_t write(const std::string& path) const;

  /// stop() + write(options.path given at start()). No-op (returns 0) when
  /// the session was started without a path.
  std::size_t stop_and_write();

  [[nodiscard]] bool active() const { return enabled(); }
  [[nodiscard]] const TraceOptions& options() const { return options_; }
  [[nodiscard]] TraceStats stats() const;

 private:
  TraceSession() = default;
  TraceOptions options_;
};

/// GSTG_TRACE=<path>: starts the global session on first call and registers
/// an atexit hook that writes <path> at process exit — any binary becomes
/// traceable without code changes. Called from the Renderer /
/// TemporalRenderer / RenderService constructors; idempotent and cheap
/// (one static). Returns true when GSTG_TRACE is set.
bool ensure_started_from_env();

/// Programmatic form of the same switch: ensures the global session is
/// collecting (no output path implied). Used by GsTgConfig::trace /
/// ServiceConfig::trace. Does not restart an already-active session.
void ensure_collecting();

}  // namespace gstg::telemetry

// Scoped span macros: GSTG_SPAN("sort_groups") traces the enclosing scope;
// GSTG_STAGE("raster", &ctx.times.raster_ms) also adds its duration to that
// StageTimes field (a null field makes it a plain GSTG_SPAN). Each expands
// to a uniquely named local so multiple spans can share a scope.
#define GSTG_SPAN_CONCAT2(a, b) a##b
#define GSTG_SPAN_CONCAT(a, b) GSTG_SPAN_CONCAT2(a, b)
#define GSTG_SPAN(name) \
  ::gstg::telemetry::SpanScope GSTG_SPAN_CONCAT(gstg_span_, __LINE__)(name)
#define GSTG_STAGE(name, field) \
  ::gstg::telemetry::SpanScope GSTG_SPAN_CONCAT(gstg_span_, __LINE__)(name, field)
