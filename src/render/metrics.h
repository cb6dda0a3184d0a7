// Rendering metrics beyond the raw counters in render/types.h: windowed
// SSIM on luminance (the fp16-fidelity experiment, DESIGN.md section 6),
// per-channel PSNR, and the cross-frame sort-reuse statistics the temporal
// renderer (src/temporal/) reports per frame and per sequence.
#pragma once

#include <cstddef>

#include "render/framebuffer.h"

namespace gstg {

/// Cross-frame group-sort reuse counters of the temporal renderer. Per
/// group and frame there are three outcomes: the cached order is reused
/// verbatim (`groups_reused`), the cached order of the splats still in the
/// group is kept and only the newcomers are sorted and merged in
/// (`groups_patched`), or the cached relative order broke and the group
/// fell back to a full sort (`groups_resorted`). All fields are
/// deterministic functions of the frame sequence (reuse decisions do not
/// depend on thread count), so sequences can be compared across machines
/// like the other work counters.
struct TemporalStats {
  std::size_t frames = 0;            ///< frames merged into this record
  std::size_t groups_total = 0;      ///< non-empty groups examined
  std::size_t groups_trivial = 0;    ///< <= 1 entry: no sort either way
  std::size_t groups_reused = 0;     ///< cached order reused verbatim (no newcomers)
  std::size_t groups_patched = 0;    ///< stayer order kept, newcomers sorted + merged
  std::size_t groups_resorted = 0;   ///< full per-group sort ran (incl. cold frames)
  std::size_t groups_evicted = 0;    ///< membership churned among groups whose validity
                                     ///< walk completed (order-broken walks truncate
                                     ///< before churn is knowable and are not counted)
  std::size_t pairs_reused = 0;      ///< entries that rode a cached order (no sort)
  std::size_t pairs_sorted = 0;      ///< entries that went through a sort
  std::size_t verify_mismatches = 0; ///< kVerify: groups whose order failed the audit

  /// Share of non-trivial groups whose cached order survived (verbatim or
  /// patched) instead of being fully re-sorted.
  [[nodiscard]] double reuse_rate() const {
    const std::size_t decided = groups_reused + groups_patched + groups_resorted;
    return decided ? static_cast<double>(groups_reused + groups_patched) /
                         static_cast<double>(decided)
                   : 0.0;
  }
  /// Share of sort-pair work avoided: entries that would have been sorted
  /// but rode on a cached order instead.
  [[nodiscard]] double sorts_avoided_ratio() const {
    const std::size_t pairs = pairs_reused + pairs_sorted;
    return pairs ? static_cast<double>(pairs_reused) / static_cast<double>(pairs) : 0.0;
  }

  void merge(const TemporalStats& other) {
    frames += other.frames;
    groups_total += other.groups_total;
    groups_trivial += other.groups_trivial;
    groups_reused += other.groups_reused;
    groups_patched += other.groups_patched;
    groups_resorted += other.groups_resorted;
    groups_evicted += other.groups_evicted;
    pairs_reused += other.pairs_reused;
    pairs_sorted += other.pairs_sorted;
    verify_mismatches += other.verify_mismatches;
  }
};

/// Operating counters of the async render service (src/service/): queueing,
/// batching, scene-cache, and cross-frame-reuse behaviour of one
/// RenderService since construction. Queue/batch fields depend on request
/// timing and are operational telemetry; the request/cache/verify totals of
/// a fixed workload driven to completion are deterministic (bench_service
/// gates those).
struct ServiceStats {
  std::size_t requests_submitted = 0;  ///< accepted into the queue
  std::size_t requests_rejected = 0;   ///< typed rejections (validation, queue full, shutdown)
  std::size_t requests_completed = 0;  ///< responses delivered with status kOk
  std::size_t requests_failed = 0;     ///< responses delivered with an error status
  std::size_t batches = 0;             ///< scheduler dispatches (>= 1 request each)
  std::size_t batched_requests = 0;    ///< requests that shared a batch with another
  std::size_t max_batch = 0;           ///< largest batch dispatched
  std::size_t peak_queue_depth = 0;    ///< high-water mark of the bounded queue
  std::size_t cache_hits = 0;          ///< scene acquisitions served from the cache
  std::size_t cache_misses = 0;        ///< acquisitions that triggered a load
  std::size_t cache_evictions = 0;     ///< resident scenes dropped by the LRU policy
  std::size_t sessions = 0;            ///< currently resident temporal sessions
  std::size_t sessions_evicted = 0;    ///< idle sessions dropped by the session cap
  std::size_t reuse_pairs = 0;         ///< TemporalStats::pairs_reused across sessions
  std::size_t sorted_pairs = 0;        ///< TemporalStats::pairs_sorted across sessions
  std::size_t verify_mismatches = 0;   ///< verify-gate renders that diverged (must be 0)
  std::size_t fast_tier_completed = 0;  ///< kOk responses rendered by the sortless fast tier

  /// Share of sort-pair work the per-session temporal caches avoided.
  [[nodiscard]] double reuse_pair_ratio() const {
    const std::size_t pairs = reuse_pairs + sorted_pairs;
    return pairs ? static_cast<double>(reuse_pairs) / static_cast<double>(pairs) : 0.0;
  }
};

/// Mean SSIM over 8x8 windows (stride 4) on Rec.601 luminance, standard
/// constants C1 = (0.01)^2 and C2 = (0.03)^2 with a peak of 1.0. Returns a
/// value in [-1, 1]; identical images score exactly 1. Throws
/// std::invalid_argument on size mismatch or images smaller than a window.
double ssim(const Framebuffer& a, const Framebuffer& b);

/// Per-channel PSNR (dB against peak 1.0); returns +inf for identical
/// channels.
struct ChannelPsnr {
  double r = 0.0;
  double g = 0.0;
  double b = 0.0;
};
ChannelPsnr channel_psnr(const Framebuffer& a, const Framebuffer& b);

}  // namespace gstg
