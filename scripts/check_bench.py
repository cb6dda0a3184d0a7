#!/usr/bin/env python3
"""Perf-regression gate: compares a fresh run_all BENCH_software.json against
the committed baseline (bench/baseline/BENCH_software.json) and fails when a
tracked quantity drifts by more than the tolerance (default +/-15%).

What is compared, and why:

  * Work counters (visible_gaussians, tile_pairs, sort_pairs,
    sort_comparison_volume, alpha_computations, blend_ops, bitmask_tests,
    filter_checks) for both pipelines of every scene. These are
    machine-independent at a fixed GSTG_SCALE — they are pure functions of
    the code — so drift means the rendering workload itself changed: the
    perf signal that survives CI-runner noise.
  * Workload ratios (sort_pair_reduction) — the paper's headline
    reduction must not silently erode.
  * Correctness flags (lossless_max_abs_diff == 0,
    batch.identical_to_sequential, every simd backend's
    exact_identical_to_scalar) — these are hard failures regardless of
    tolerance.

  * Temporal reuse ratios (--temporal/--temporal-baseline pair of
    BENCH_temporal.json files): per scene and camera path, the reuse rate,
    sorts-avoided ratio, and sort-volume reduction of the cross-frame
    group-sort cache must stay within tolerance of the committed baseline,
    a sorts-avoided ratio that was positive must stay positive, and the
    kVerify / bit-identity flags are hard failures.

  * Render-service records (--service/--service-baseline pair of
    BENCH_service.json files): per scene, the request/cache totals and the
    per-session reuse-pair ratio of the fixed multi-client workload are
    deterministic and must stay within tolerance; the bit-identity,
    verify-gate, and typed-rejection flags are hard failures. Queue/batch
    depths and the 1 -> 4 client throughput scaling depend on timing and
    core count, so they are recorded but only compared under --check-times.

  * Dataset/residency records (--dataset/--dataset-baseline pair of
    BENCH_dataset.json files): per loader fixture, the sniffed source
    format and the ingested gaussian/camera counts are pure functions of
    the committed fixture bytes; per scene, the cloud size, checkpoint
    bytes, resident-form bytes and the fp16-vs-float32 compression ratio
    are machine-independent and must stay within tolerance. The fresh
    run's fixtures_ok / compression_ok (resident bytes >= 2x smaller) /
    verify_ok (streamed decode bit-identical to up-front decode) flags are
    hard failures. Load/encode/render wall-clocks are compared only under
    --check-times.

  * Sortless-quality records (--quality/--quality-baseline pair of
    BENCH_quality.json files): per scene, the sort pairs avoided and blend-op
    counts are machine-independent and must stay within tolerance, and the
    PSNR/SSIM of the sortless image against the exact one must not drift
    (they are deterministic at a fixed scale). The fresh run's top-level and
    per-scene quality_ok (committed PSNR/SSIM floor) and verify_ok (kVerify
    bit-identical to pure kSortless) flags, and sortless sort_pairs == 0,
    are hard failures. sort_ms_removed / raster_ms_* are compared only
    under --check-times.

  * Telemetry records (--telemetry/--telemetry-baseline pair of
    BENCH_telemetry.json files): the recorded/exported event counts and the
    per-stage span counts of the fixed single-threaded run are
    machine-independent and must stay within tolerance; the fresh run's
    overhead_ok (tracing cost on sort+raster under the committed 3% limit),
    dropped_ok (zero ring overflow), deterministic (bit-identical image and
    counters with tracing on), and stage_spans_ok flags are hard failures.
    The raw plain/traced wall-clocks and the overhead ratio itself are
    compared only under --check-times.

  * Accelerator-model records (--hardware/--hardware-baseline pair of
    BENCH_hardware.json files): the cycle, DRAM and energy model is
    deterministic, so every field of every scene (cycles, fps, bottleneck,
    DRAM bytes, energy, speedup ratios) must match the committed baseline
    exactly. Only timestamp_utc and peak_rss_bytes are ignored. A scene
    missing from, or added to, the fresh output fails.

Wall-clock fields (*_ms, speedups derived from them) are skipped by default:
absolute times are machine-dependent and CI runners are noisy. Pass
--check-times for same-machine comparisons (e.g. refreshing the baseline
locally and eyeballing the diff).

Usage:
  check_bench.py <fresh BENCH_software.json> <baseline BENCH_software.json>
                 [--tolerance=0.15] [--check-times]
                 [--temporal=<fresh BENCH_temporal.json>]
                 [--temporal-baseline=<baseline BENCH_temporal.json>]
                 [--service=<fresh BENCH_service.json>]
                 [--service-baseline=<baseline BENCH_service.json>]
                 [--dataset=<fresh BENCH_dataset.json>]
                 [--dataset-baseline=<baseline BENCH_dataset.json>]
                 [--quality=<fresh BENCH_quality.json>]
                 [--quality-baseline=<baseline BENCH_quality.json>]
                 [--telemetry=<fresh BENCH_telemetry.json>]
                 [--telemetry-baseline=<baseline BENCH_telemetry.json>]
                 [--hardware=<fresh BENCH_hardware.json>]
                 [--hardware-baseline=<baseline BENCH_hardware.json>]

Baseline refresh procedure: see bench/README.md ("Perf-regression gate").
"""

import json
import sys

SERVICE_COUNTER_KEYS = [
    "frames_per_client",
    "requests_completed",
    "requests_failed",
    "cache_misses",
    "reuse_pairs",
    "sorted_pairs",
]
SERVICE_RATIO_KEYS = ["reuse_pair_ratio"]
SERVICE_TIME_KEYS = [
    "sequential_ms",
    "wall_ms_1client",
    "wall_ms_4client",
    "throughput_fps_1client",
    "throughput_fps_4client",
    "scaling_1_to_4",
]

DATASET_FIXTURE_KEYS = ["gaussians", "cameras"]
DATASET_COUNTER_KEYS = [
    "gaussians",
    "sh_degree",
    "ply_bytes",
    "resident_bytes",
    "float32_bytes",
]
DATASET_RATIO_KEYS = ["compression_ratio"]
DATASET_TIME_KEYS = [
    "load_ms",
    "encode_ms",
    "float32_render_ms",
    "compressed_render_ms",
    "decode_overhead",
]

QUALITY_COUNTER_KEYS = [
    "visible_gaussians",
    "sort_pairs_avoided",
    "sort_comparison_volume_avoided",
    "sortless_blend_ops",
    "exact_blend_ops",
]
QUALITY_RATIO_KEYS = ["psnr", "ssim"]
QUALITY_TIME_KEYS = [
    "sort_ms_removed",
    "raster_ms_exact",
    "raster_ms_sortless",
    "raster_ms_delta",
]

TELEMETRY_COUNTER_KEYS = [
    "frames",
    "repeat",
    "events_recorded",
    "trace_events_written",
]
TELEMETRY_TIME_KEYS = [
    "plain_sort_raster_ms",
    "traced_sort_raster_ms",
    "overhead_ratio",
]

TEMPORAL_COUNTER_KEYS = [
    "groups_total",
    "groups_reused",
    "groups_patched",
    "groups_resorted",
    "pairs_reused",
    "pairs_sorted",
]
TEMPORAL_RATIO_KEYS = ["reuse_rate", "sorts_avoided", "sort_volume_reduction"]

COUNTER_KEYS = [
    "visible_gaussians",
    "tile_pairs",
    "sort_pairs",
    "sort_comparison_volume",
    "alpha_computations",
    "blend_ops",
    "bitmask_tests",
    "filter_checks",
]
RATIO_KEYS = ["sort_pair_reduction"]
TIME_SUFFIX = "_ms"

HARDWARE_IGNORED_KEYS = ("timestamp_utc", "peak_rss_bytes")


def rel_diff(new, old):
    if old == 0:
        return 0.0 if new == 0 else float("inf")
    return abs(new - old) / abs(old)


class Gate:
    def __init__(self, tolerance):
        self.tolerance = tolerance
        self.failures = []
        self.checked = 0

    def check(self, where, key, new, old):
        self.checked += 1
        d = rel_diff(new, old)
        if d > self.tolerance:
            self.failures.append(
                f"{where}.{key}: {new} vs baseline {old} ({d * 100.0:.1f}% > "
                f"{self.tolerance * 100.0:.0f}%)"
            )

    def require(self, where, condition, message):
        self.checked += 1
        if not condition:
            self.failures.append(f"{where}: {message}")


def compare_section(gate, where, new, old, keys):
    for key in keys:
        if key in old:
            if key not in new:
                gate.require(where, False, f"missing field '{key}' in fresh output")
            else:
                gate.check(where, key, new[key], old[key])


def compare_times(gate, where, new, old):
    for key, value in old.items():
        if key.endswith(TIME_SUFFIX) and isinstance(value, (int, float)):
            if isinstance(new.get(key), (int, float)):
                gate.check(where, key, new[key], value)


def compare_temporal(gate, fresh, baseline):
    """Gates a fresh BENCH_temporal.json against the committed baseline."""
    if fresh.get("scale", {}) != baseline.get("scale", {}):
        gate.require(
            "temporal",
            False,
            f"scale mismatch (fresh {fresh.get('scale')} vs baseline {baseline.get('scale')})",
        )
        return
    fresh_scenes = {s["scene"]: s for s in fresh.get("scenes", [])}
    for scene in baseline.get("scenes", []):
        name = scene["scene"]
        if name not in fresh_scenes:
            gate.require(f"temporal.{name}", False, "scene missing from fresh output")
            continue
        fresh_paths = {p["path"]: p for p in fresh_scenes[name].get("paths", [])}
        for base_path in scene.get("paths", []):
            kind = base_path["path"]
            where = f"temporal.{name}.{kind}"
            if kind not in fresh_paths:
                gate.require(where, False, "path missing from fresh output")
                continue
            new = fresh_paths[kind]
            compare_section(gate, where, new, base_path, TEMPORAL_COUNTER_KEYS)
            compare_section(gate, where, new, base_path, TEMPORAL_RATIO_KEYS)
            if base_path.get("sorts_avoided", 0) > 0:
                gate.require(
                    where,
                    new.get("sorts_avoided", 0) > 0,
                    "sorts-avoided ratio dropped to zero (cross-frame reuse broke)",
                )
            gate.require(
                where,
                new.get("verify_ok") in (True, "true"),
                "kVerify found a reused order that is not bit-identical to sorting",
            )
            gate.require(
                where,
                new.get("identical_to_off") in (True, "true"),
                "temporal output diverged from the per-frame renderer",
            )


def compare_dataset(gate, fresh, baseline, check_times):
    """Gates a fresh BENCH_dataset.json against the committed baseline."""
    if fresh.get("scale", {}) != baseline.get("scale", {}):
        gate.require(
            "dataset",
            False,
            f"scale mismatch (fresh {fresh.get('scale')} vs baseline {baseline.get('scale')})",
        )
        return
    gate.require(
        "dataset",
        fresh.get("fixtures_ok") in (True, "true"),
        "a loader fixture was mis-sniffed or a PLY round-trip did not reproduce the cloud",
    )
    gate.require(
        "dataset",
        fresh.get("compression_ok") in (True, "true"),
        "the fp16 resident form is no longer >= 2x smaller than the float32 SoA",
    )
    gate.require(
        "dataset",
        fresh.get("verify_ok") in (True, "true"),
        "the streamed decode render is not bit-identical to the up-front decode render",
    )
    fresh_fixtures = {f["name"]: f for f in fresh.get("fixtures", [])}
    for fixture in baseline.get("fixtures", []):
        name = fixture["name"]
        where = f"dataset.fixture.{name}"
        if name not in fresh_fixtures:
            gate.require(where, False, "fixture missing from fresh output")
            continue
        new = fresh_fixtures[name]
        gate.require(
            where,
            new.get("source") == fixture.get("source"),
            f"sniffed source changed ({new.get('source')} vs {fixture.get('source')})",
        )
        compare_section(gate, where, new, fixture, DATASET_FIXTURE_KEYS)
        if check_times:
            compare_section(gate, where, new, fixture, ["load_ms"])
    fresh_scenes = {s["scene"]: s for s in fresh.get("scenes", [])}
    for scene in baseline.get("scenes", []):
        name = scene["scene"]
        where = f"dataset.{name}"
        if name not in fresh_scenes:
            gate.require(where, False, "scene missing from fresh output")
            continue
        new = fresh_scenes[name]
        compare_section(gate, where, new, scene, DATASET_COUNTER_KEYS)
        compare_section(gate, where, new, scene, DATASET_RATIO_KEYS)
        if check_times:
            compare_section(gate, where, new, scene, DATASET_TIME_KEYS)
        gate.require(
            where,
            new.get("verify_ok") in (True, "true"),
            "kVerify failed or the streamed image diverged on this scene",
        )


def compare_quality(gate, fresh, baseline, check_times):
    """Gates a fresh BENCH_quality.json against the committed baseline."""
    if fresh.get("scale", {}) != baseline.get("scale", {}):
        gate.require(
            "quality",
            False,
            f"scale mismatch (fresh {fresh.get('scale')} vs baseline {baseline.get('scale')})",
        )
        return
    gate.require(
        "quality",
        fresh.get("quality_ok") in (True, "true"),
        "a scene's sortless PSNR/SSIM fell below the committed floor",
    )
    gate.require(
        "quality",
        fresh.get("verify_ok") in (True, "true"),
        "the kVerify pipeline diverged from pure kSortless",
    )
    fresh_scenes = {s["scene"]: s for s in fresh.get("scenes", [])}
    for scene in baseline.get("scenes", []):
        name = scene["scene"]
        where = f"quality.{name}"
        if name not in fresh_scenes:
            gate.require(where, False, "scene missing from fresh output")
            continue
        new = fresh_scenes[name]
        compare_section(gate, where, new, scene, QUALITY_COUNTER_KEYS)
        compare_section(gate, where, new, scene, QUALITY_RATIO_KEYS)
        if check_times:
            compare_section(gate, where, new, scene, QUALITY_TIME_KEYS)
        gate.require(
            where,
            new.get("sortless_sort_pairs", 1) == 0,
            f"sortless run sorted {new.get('sortless_sort_pairs')} pairs (must be 0)",
        )
        gate.require(
            where,
            new.get("quality_ok") in (True, "true"),
            "sortless PSNR/SSIM fell below this scene's committed floor",
        )
        gate.require(
            where,
            new.get("verify_ok") in (True, "true"),
            "kVerify output or counters diverged from pure kSortless on this scene",
        )


def compare_telemetry(gate, fresh, baseline, check_times):
    """Gates a fresh BENCH_telemetry.json against the committed baseline."""
    if fresh.get("scale", {}) != baseline.get("scale", {}):
        gate.require(
            "telemetry",
            False,
            f"scale mismatch (fresh {fresh.get('scale')} vs baseline {baseline.get('scale')})",
        )
        return
    # Hard flags: the binary computed them on the fresh machine, so they are
    # authoritative regardless of tolerance.
    gate.require(
        "telemetry",
        fresh.get("overhead_ok") in (True, "true"),
        f"tracing overhead {fresh.get('overhead_ratio')} exceeded the committed "
        f"limit {fresh.get('overhead_limit')} on sort+raster",
    )
    gate.require(
        "telemetry",
        fresh.get("dropped_ok") in (True, "true"),
        f"trace rings dropped {fresh.get('events_dropped')} events "
        "(the run must fit the default capacity)",
    )
    gate.require(
        "telemetry",
        fresh.get("deterministic") in (True, "true"),
        "image or counters diverged with tracing enabled",
    )
    gate.require(
        "telemetry",
        fresh.get("stage_spans_ok") in (True, "true"),
        "a pipeline stage emitted no spans into the exported trace",
    )
    # Span counts are machine-independent at a fixed scale (single-threaded
    # run): drift means instrumentation was added/removed or a stage stopped
    # executing.
    compare_section(gate, "telemetry", fresh, baseline, TELEMETRY_COUNTER_KEYS)
    fresh_spans = fresh.get("stage_spans", {})
    for stage, count in baseline.get("stage_spans", {}).items():
        if stage not in fresh_spans:
            gate.require("telemetry.stage_spans", False, f"stage '{stage}' missing")
        else:
            gate.check("telemetry.stage_spans", stage, fresh_spans[stage], count)
    if check_times:
        compare_section(gate, "telemetry", fresh, baseline, TELEMETRY_TIME_KEYS)


def require_equal(gate, where, new, old):
    """Requires `new` to equal `old` exactly, leaf by leaf (dicts by key)."""
    if isinstance(old, dict) and isinstance(new, dict):
        for key in sorted(set(old) | set(new)):
            if key not in new:
                gate.require(where, False, f"missing field '{key}' in fresh output")
            elif key not in old:
                gate.require(where, False, f"field '{key}' not in baseline")
            else:
                require_equal(gate, f"{where}.{key}", new[key], old[key])
    else:
        gate.require(where, new == old, f"{new} vs baseline {old} (must match exactly)")


def compare_hardware(gate, fresh, baseline):
    """Gates a fresh BENCH_hardware.json against the committed baseline."""

    def header(doc):
        return {k: v for k, v in doc.items() if k not in HARDWARE_IGNORED_KEYS + ("scenes",)}

    require_equal(gate, "hardware", header(fresh), header(baseline))
    fresh_scenes = {s["scene"]: s for s in fresh.get("scenes", [])}
    base_scenes = {s["scene"]: s for s in baseline.get("scenes", [])}
    for name in sorted(set(base_scenes) | set(fresh_scenes)):
        where = f"hardware.{name}"
        if name not in fresh_scenes:
            gate.require(where, False, "scene missing from fresh output")
        elif name not in base_scenes:
            gate.require(where, False, "scene not in baseline")
        else:
            require_equal(gate, where, fresh_scenes[name], base_scenes[name])


def compare_service(gate, fresh, baseline, check_times):
    """Gates a fresh BENCH_service.json against the committed baseline."""
    if fresh.get("scale", {}) != baseline.get("scale", {}):
        gate.require(
            "service",
            False,
            f"scale mismatch (fresh {fresh.get('scale')} vs baseline {baseline.get('scale')})",
        )
        return
    fresh_scenes = {s["scene"]: s for s in fresh.get("scenes", [])}
    for scene in baseline.get("scenes", []):
        name = scene["scene"]
        where = f"service.{name}"
        if name not in fresh_scenes:
            gate.require(where, False, "scene missing from fresh output")
            continue
        new = fresh_scenes[name]
        compare_section(gate, where, new, scene, SERVICE_COUNTER_KEYS)
        compare_section(gate, where, new, scene, SERVICE_RATIO_KEYS)
        if check_times:
            compare_section(gate, where, new, scene, SERVICE_TIME_KEYS)
        gate.require(
            where,
            new.get("identical_to_sequential") in (True, "true"),
            "concurrent service output diverged from per-request sequential render_gstg",
        )
        gate.require(
            where,
            new.get("verify_ok") in (True, "true"),
            "the verify gate found a response that is not bit-identical to render_gstg",
        )
        gate.require(
            where,
            new.get("malformed_rejected") in (True, "true"),
            "a malformed request was not rejected with a typed error",
        )
        # The 1 -> 4 client scaling bar (> 1.5x) is judged by the fresh run
        # itself wherever the machine has >= 4 cores to express it.
        if new.get("scaling_gate_active") in (True, "true"):
            gate.require(
                where,
                new.get("scaling_ok") in (True, "true"),
                "1->4 client throughput scaling fell below 1.5x on a >=4-core machine",
            )


# The optional bench sections, in the order they are checked: each
# --<flag>=<fresh> pairs with --<flag>-baseline=<baseline>. Value: the
# compare function and whether it takes check_times.
SECTION_FLAGS = {
    "temporal": (compare_temporal, False),
    "service": (compare_service, True),
    "dataset": (compare_dataset, True),
    "quality": (compare_quality, True),
    "telemetry": (compare_telemetry, True),
    "hardware": (compare_hardware, False),
}


def main(argv):
    args = [a for a in argv[1:] if not a.startswith("--")]
    opts = [a for a in argv[1:] if a.startswith("--")]
    if len(args) != 2:
        print(__doc__)
        return 1
    tolerance = 0.15
    check_times = False
    paths = {}  # "temporal" / "temporal-baseline" / ... -> path
    for opt in opts:
        name, has_value, value = opt[2:].partition("=")
        if opt.startswith("--tolerance="):
            tolerance = float(value)
        elif opt == "--check-times":
            check_times = True
        elif has_value and name.removesuffix("-baseline") in SECTION_FLAGS:
            paths[name] = value
        else:
            print(f"check_bench: unknown option {opt}")
            return 1
    for flag in SECTION_FLAGS:
        if (flag in paths) != (f"{flag}-baseline" in paths):
            print(f"check_bench: --{flag} and --{flag}-baseline must be given together")
            return 1

    with open(args[0]) as f:
        fresh = json.load(f)
    with open(args[1]) as f:
        baseline = json.load(f)

    gate = Gate(tolerance)

    fresh_scale = fresh.get("scale", {})
    base_scale = baseline.get("scale", {})
    if fresh_scale != base_scale:
        print(
            f"check_bench: FAIL — scale mismatch (fresh {fresh_scale} vs baseline "
            f"{base_scale}); run with the baseline's GSTG_SCALE"
        )
        return 1

    fresh_scenes = {s["scene"]: s for s in fresh.get("scenes", [])}
    base_scenes = {s["scene"]: s for s in baseline.get("scenes", [])}
    missing = sorted(set(base_scenes) - set(fresh_scenes))
    if missing:
        print(f"check_bench: FAIL — scenes missing from fresh output: {missing}")
        return 1
    extra = sorted(set(fresh_scenes) - set(base_scenes))
    if extra:
        print(
            f"check_bench: note — scenes not in baseline (unchecked): {extra}; "
            "refresh the baseline to cover them (bench/README.md)"
        )

    for name, base in sorted(base_scenes.items()):
        new = fresh_scenes[name]
        gate.require(
            name,
            new.get("lossless_max_abs_diff", 1) == 0,
            f"lossless violation (max diff {new.get('lossless_max_abs_diff')})",
        )
        for section in ("baseline", "gstg"):
            if section in base:
                compare_section(
                    gate, f"{name}.{section}", new.get(section, {}), base[section], COUNTER_KEYS
                )
                if check_times:
                    compare_times(gate, f"{name}.{section}", new.get(section, {}), base[section])
        if "ratios" in base:
            compare_section(gate, f"{name}.ratios", new.get("ratios", {}), base["ratios"], RATIO_KEYS)
        # Correctness sections are required from the baseline's side: a fresh
        # output that stops emitting them must fail, not silently skip the gate.
        if "batch" in base:
            gate.require(f"{name}.batch", "batch" in new, "batch section missing from fresh output")
        if "batch" in new:
            gate.require(
                f"{name}.batch",
                new["batch"].get("identical_to_sequential") in (True, "true"),
                "batch output diverged from sequential rendering",
            )
        if "residency" in new:
            gate.require(
                f"{name}.residency",
                new["residency"].get("identical_to_upfront") in (True, "true"),
                "streamed compressed-residency render diverged from up-front decode",
            )
        if "simd" in base:
            gate.require(
                f"{name}.simd",
                bool(new.get("simd", {}).get("backends")),
                "simd section missing or empty in fresh output",
            )
        for backend in new.get("simd", {}).get("backends", []):
            gate.require(
                f"{name}.simd.{backend.get('backend')}",
                backend.get("exact_identical_to_scalar") in (True, "true"),
                "exact-mode framebuffer diverged from the scalar backend",
            )

    for flag, (compare, takes_check_times) in SECTION_FLAGS.items():
        if flag not in paths:
            continue
        with open(paths[flag]) as f:
            section_fresh = json.load(f)
        with open(paths[f"{flag}-baseline"]) as f:
            section_baseline = json.load(f)
        if takes_check_times:
            compare(gate, section_fresh, section_baseline, check_times)
        else:
            compare(gate, section_fresh, section_baseline)

    if gate.failures:
        print(f"check_bench: FAIL — {len(gate.failures)} violation(s), {gate.checked} checks:")
        for f in gate.failures:
            print(f"  {f}")
        print("If the change is intentional, refresh the baseline (bench/README.md).")
        return 1
    print(
        f"check_bench: OK ({gate.checked} checks within {tolerance * 100.0:.0f}% across "
        f"{len(base_scenes)} scenes)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
