#include "temporal/temporal_renderer.h"

#include <algorithm>
#include <limits>

#include "common/parallel.h"
#include "common/timer.h"
#include "telemetry/trace.h"

namespace gstg {

namespace {

/// Sizes the per-worker slots for this frame and zeroes the accumulators.
/// The cloud-sized stamp/entry maps are (re)allocated only when the cloud
/// size changes, so steady-state frames allocate nothing.
void prepare_scratch(TemporalScratch& scratch, std::size_t workers, std::size_t cloud_size) {
  if (scratch.workers.size() < workers) scratch.workers.resize(workers);
  for (TemporalScratch::Worker& w : scratch.workers) {
    w.sort.volume = 0.0;
    w.sort.pairs = 0;
    w.stats = {};
    if (w.stamp.size() != cloud_size) {
      w.stamp.assign(cloud_size, 0);
      w.entry_of.resize(cloud_size);
      w.epoch = 0;
    }
  }
}

}  // namespace

TemporalRenderer::TemporalRenderer(const GsTgConfig& config) : renderer_(config) {}

void TemporalRenderer::invalidate() {
  cache_.valid = false;
  last_ = {};
  total_ = {};
}

void TemporalRenderer::render(const GaussianCloud& cloud, const Camera& camera,
                              FrameContext& ctx) {
  GSTG_SPAN("frame");
  renderer_.begin_frame(cloud, camera, ctx);

  // Group ordering, all of it the sort stage: reuse the cached cross-frame
  // order where provably valid, sort the rest, audit it (kVerify); then
  // snapshot the shipped lists for the next frame. The sortless pipelines
  // bypass the cache cleanly: nothing sorts, so there is no order to
  // snapshot, reuse, or audit — the cache is never touched and every
  // TemporalStats field stays zero (frames excepted).
  last_ = {};
  if (config().pipeline == PipelineMode::kExact) {
    {
      GSTG_STAGE("temporal_sort", &ctx.times.sort_ms);
      temporal_sort(ctx.splats, ctx);
    }
    if (config().temporal == TemporalMode::kVerify) {
      GSTG_STAGE("audit", &ctx.times.sort_ms);
      audit_order(cloud, camera, ctx);
    }
    if (config().temporal != TemporalMode::kOff) {
      GSTG_STAGE("snapshot_cache", &ctx.times.sort_ms);
      snapshot_cache(ctx.frame, ctx.splats, cloud.size());
    }
  }
  last_.frames = 1;
  total_.merge(last_);

  renderer_.end_frame(cloud, camera, ctx);
}

void TemporalRenderer::audit_order(const GaussianCloud& cloud, const Camera& camera,
                                   FrameContext& ctx) {
  const FrameContext& reference = renderer_.order_reference(cloud, camera, ctx);
  const GroupedFrame& want = reference.frame;
  const std::vector<std::uint32_t>& offsets = want.group_bins.offsets;
  for (std::size_t g = 0; g + 1 < offsets.size(); ++g) {
    for (std::uint32_t e = offsets[g]; e < offsets[g + 1]; ++e) {
      if (want.group_bins.splat_ids[e] != ctx.frame.group_bins.splat_ids[e] ||
          want.masks[e] != ctx.frame.masks[e]) {
        ++last_.verify_mismatches;
        break;
      }
    }
  }
  // Correctness wins: ship the reference order, and its sort work so the
  // counters match a plain per-frame sort bit for bit.
  ctx.frame.group_bins = want.group_bins;
  ctx.frame.masks = want.masks;
  ctx.counters.sort_pairs = reference.counters.sort_pairs;
  ctx.counters.sort_comparison_volume = reference.counters.sort_comparison_volume;
}

void TemporalRenderer::temporal_sort(std::span<const ProjectedSplat> splats, FrameContext& ctx) {
  BinnedSplats& bins = ctx.frame.group_bins;
  std::vector<TileMask>& masks = ctx.frame.masks;
  const CellGrid& grid = ctx.frame.group_grid;
  const std::size_t groups = static_cast<std::size_t>(grid.cell_count());
  // Counters were reset at frame start, so this is exactly cloud.size() —
  // the bound on ProjectedSplat::index the stamp/entry maps are sized to.
  const std::size_t cloud_size = ctx.counters.input_gaussians;

  const bool warm = config().temporal != TemporalMode::kOff && cache_.valid &&
                    cache_.cells_x == grid.cells_x && cache_.cells_y == grid.cells_y &&
                    cache_.cloud_size == cloud_size;

  if (!warm) {
    // Cold frame (or kOff): the plain per-frame group sort, plus the group
    // census so reuse rates have their denominator from frame 0 on.
    renderer_.order_groups(ctx);
    for (std::size_t g = 0; g < groups; ++g) {
      const std::size_t n = bins.offsets[g + 1] - bins.offsets[g];
      if (n == 0) continue;
      ++last_.groups_total;
      if (n <= 1) {
        ++last_.groups_trivial;
      } else {
        ++last_.groups_resorted;
        last_.pairs_sorted += n;
      }
    }
    return;
  }

  // Same key compaction as sort_groups, so fallback sorts order identically.
  std::uint32_t max_index = 0;
  for (const ProjectedSplat& splat : splats) max_index = std::max(max_index, splat.index);
  const int key_bits = depth_index_key_bits(max_index);
  const int index_bits = key_bits - 32;

  const std::size_t workers = planned_worker_count(groups, config().threads);
  prepare_scratch(scratch_, workers, cloud_size);

  parallel_for_chunks(0, groups, [&](std::size_t lo, std::size_t hi, std::size_t worker) {
    GSTG_SPAN("temporal_cache_walk");
    TemporalScratch::Worker& ws = scratch_.workers[worker];
    for (std::size_t g = lo; g < hi; ++g) {
      const std::uint32_t begin = bins.offsets[g];
      const std::uint32_t end = bins.offsets[g + 1];
      const std::size_t n = end - begin;
      if (n == 0) continue;
      ++ws.stats.groups_total;
      if (n <= 1) {
        ++ws.stats.groups_trivial;
        ws.sort.pairs += n;
        continue;
      }

      // Membership marking: two epochs per examined group (new entries get
      // epoch, stayers are promoted to epoch + 1) keep the cloud-sized maps
      // valid without clearing between groups.
      if (ws.epoch >= std::numeric_limits<std::uint32_t>::max() - 2) {
        std::fill(ws.stamp.begin(), ws.stamp.end(), 0u);
        ws.epoch = 0;
      }
      const std::uint32_t fresh = ++ws.epoch;   // marks entries of this frame
      const std::uint32_t stayer = ++ws.epoch;  // marks entries also in the cache
      for (std::uint32_t e = begin; e < end; ++e) {
        const std::uint32_t ci = splats[bins.splat_ids[e]].index;
        ws.stamp[ci] = fresh;
        ws.entry_of[ci] = e;
      }

      if (ws.stayer_ids.size() < n) {
        ws.stayer_ids.resize(n);
        ws.stayer_masks.resize(n);
        ws.stayer_keys.resize(n);
      }

      // Validity walk along the cached order: splats that left the group
      // drop out; the remaining stayers must be strictly increasing under
      // the new packed keys. Keys are unique per group, so a strictly
      // increasing subsequence is exactly sorted.
      const std::uint32_t cached_begin = cache_.offsets[g];
      const std::uint32_t cached_end = cache_.offsets[g + 1];
      bool order_ok = true;
      std::size_t stayers = 0;
      std::uint64_t prev_key = 0;
      for (std::uint32_t c = cached_begin; c < cached_end; ++c) {
        const std::uint32_t ci = cache_.sorted_cloud_ids[c];
        if (ws.stamp[ci] != fresh) continue;  // left the group (or already seen)
        const std::uint32_t e = ws.entry_of[ci];
        const std::uint32_t id = bins.splat_ids[e];
        const std::uint64_t key = pack_depth_index_key(splats[id].depth, splats[id].index);
        if (stayers != 0 && key <= prev_key) {
          order_ok = false;  // depth inversion under the new view
          break;
        }
        prev_key = key;
        ws.stamp[ci] = stayer;
        ws.stayer_ids[stayers] = id;
        ws.stayer_masks[stayers] = masks[e];
        ws.stayer_keys[stayers] = key;
        ++stayers;
      }

      // Membership churn is only knowable when the walk completed (an
      // order break truncates it, leaving the stayer count meaningless);
      // a group with no stayers at all has nothing to reuse — sorting all
      // its entries "as joiners" would be a full sort in disguise, so it
      // takes the fallback path and honest accounting.
      if (order_ok &&
          (stayers != n || cached_end - cached_begin != n)) {
        ++ws.stats.groups_evicted;
      }
      if (!order_ok || stayers == 0) {
        sort_group_entries(bins.splat_ids.data() + begin, masks.data() + begin, n, splats,
                           key_bits, index_bits, ws.sort);
        ++ws.stats.groups_resorted;
        ws.stats.pairs_sorted += n;
        continue;
      }

      // Gather and sort the joiners (entries not promoted to `stayer`).
      const std::size_t joiners = n - stayers;
      if (ws.joiner_ids.size() < joiners) {
        ws.joiner_ids.resize(joiners);
        ws.joiner_masks.resize(joiners);
      }
      std::size_t j = 0;
      for (std::uint32_t e = begin; e < end && j < joiners; ++e) {
        const std::uint32_t ci = splats[bins.splat_ids[e]].index;
        if (ws.stamp[ci] == stayer) continue;
        ws.joiner_ids[j] = bins.splat_ids[e];
        ws.joiner_masks[j] = masks[e];
        ++j;
      }
      sort_group_entries(ws.joiner_ids.data(), ws.joiner_masks.data(), joiners, splats,
                         key_bits, index_bits, ws.sort);
      ws.sort.pairs += stayers;  // sort_pairs counts all entries, sorted or reused

      // Two-way merge by key into the group's range. Keys are unique, so
      // this is THE sorted order — bit-identical to a full sort. The
      // current joiner's key is packed once per cursor advance, not per
      // output step.
      std::size_t si = 0;
      std::size_t ji = 0;
      std::uint64_t jkey = 0;
      if (joiners != 0) {
        jkey = pack_depth_index_key(splats[ws.joiner_ids[0]].depth,
                                    splats[ws.joiner_ids[0]].index);
      }
      for (std::uint32_t e = begin; e < end; ++e) {
        const bool take_stayer =
            si < stayers && (ji >= joiners || ws.stayer_keys[si] < jkey);
        if (take_stayer) {
          bins.splat_ids[e] = ws.stayer_ids[si];
          masks[e] = ws.stayer_masks[si];
          ++si;
        } else {
          bins.splat_ids[e] = ws.joiner_ids[ji];
          masks[e] = ws.joiner_masks[ji];
          ++ji;
          if (ji < joiners) {
            jkey = pack_depth_index_key(splats[ws.joiner_ids[ji]].depth,
                                        splats[ws.joiner_ids[ji]].index);
          }
        }
      }

      if (joiners == 0) {
        ++ws.stats.groups_reused;
      } else {
        ++ws.stats.groups_patched;
      }
      ws.stats.pairs_reused += stayers;
      ws.stats.pairs_sorted += joiners;
    }
  }, config().threads);

  // Deterministic merges, worker order fixed (same contract as sort_groups).
  for (std::size_t w = 0; w < workers; ++w) {
    ctx.counters.sort_comparison_volume += scratch_.workers[w].sort.volume;
    ctx.counters.sort_pairs += scratch_.workers[w].sort.pairs;
    last_.merge(scratch_.workers[w].stats);
  }
}

void TemporalRenderer::snapshot_cache(const GroupedFrame& frame,
                                      std::span<const ProjectedSplat> splats,
                                      std::size_t cloud_size) {
  const BinnedSplats& bins = frame.group_bins;
  cache_.offsets = bins.offsets;
  cache_.sorted_cloud_ids.resize(bins.splat_ids.size());
  parallel_for_chunks(0, bins.splat_ids.size(), [&](std::size_t lo, std::size_t hi, std::size_t) {
    for (std::size_t e = lo; e < hi; ++e) {
      cache_.sorted_cloud_ids[e] = splats[bins.splat_ids[e]].index;
    }
  }, config().threads);
  cache_.cells_x = frame.group_grid.cells_x;
  cache_.cells_y = frame.group_grid.cells_y;
  cache_.cloud_size = cloud_size;
  cache_.valid = true;
}

TemporalSequenceResult render_sequence(const GaussianCloud& cloud,
                                       std::span<const Camera> cameras,
                                       const GsTgConfig& config, bool keep_images) {
  TemporalRenderer renderer(config);
  const std::size_t n = cameras.size();

  TemporalSequenceResult result;
  if (keep_images) result.images.reserve(n);
  result.times.resize(n);
  result.counters.resize(n);
  result.frame_stats.resize(n);

  Timer timer;
  FrameContext ctx;
  for (std::size_t f = 0; f < n; ++f) {
    renderer.render(cloud, cameras[f], ctx);
    if (keep_images) result.images.push_back(ctx.image);
    result.times[f] = ctx.times;
    result.counters[f] = ctx.counters;
    result.frame_stats[f] = renderer.last_frame();
    result.total_counters.merge(ctx.counters);
  }
  result.wall_ms = timer.elapsed_ms();
  result.total_stats = renderer.total();
  return result;
}

TemporalSequenceResult render_sequence(const GaussianCloud& cloud, const FrameSequence& sequence,
                                       const GsTgConfig& config, bool keep_images) {
  return render_sequence(cloud, sequence.views(), config, keep_images);
}

}  // namespace gstg
