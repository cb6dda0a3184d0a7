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
    tolerance. The batch and simd sections are required from the
    baseline's side: a fresh output that stops emitting one fails instead
    of skipping its gate. (The streamed-residency A/B is bench_dataset's,
    gated per scene by its verify_ok flag.)

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

  * Paper-report records (--paper/--paper-baseline pair of BENCH_paper.json
    files, written by bench_paper): one list of rows per figure or table of
    the paper's evaluation, matched by their "case" field; a row the
    baseline lacks, or a missing figure, fails. Simulator outputs (Figs.
    14/15, Tables II/III, the ablation sweeps) must match exactly; the
    counter-derived values (Table I, Figs. 5/7, the fp16 and footprint
    studies) stay within tolerance; the render times and the speedups
    derived from them (Figs. 3, 11, 12, 13) are compared only under
    --check-times. The paper-reference footers are not compared.

  * Accelerator-model records (--hardware/--hardware-baseline pair of
    BENCH_hardware.json files): the cycle, DRAM and energy model is
    deterministic, so every field of every scene (cycles, fps, bottleneck,
    DRAM bytes, energy, speedup ratios) must match the committed baseline
    exactly. Only timestamp_utc and peak_rss_bytes are ignored. A scene
    missing from, or added to, the fresh output fails.

Records are indexed by their key field (scene, path, name, ...); a record
without it fails as a violation naming its list and index.

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
                 [--paper=<fresh BENCH_paper.json>]
                 [--paper-baseline=<baseline BENCH_paper.json>]
                 [--hardware=<fresh BENCH_hardware.json>]
                 [--hardware-baseline=<baseline BENCH_hardware.json>]

Every gate above is one entry of the BENCHES table below; to gate a new
field, add it to its bench's entry. Baseline refresh procedure: see
bench/README.md ("Perf-regression gate").
"""

import json
import sys

EVERY_FIELD = "*"  # every field of the baseline object but its list key
TIME_FIELDS = "_ms"  # every *_ms field both objects carry
MISSING_FIELD = "missing field '{}' in fresh output"

# A run_all stage object: work counters within tolerance, times under --check-times.
RUN_ALL_STAGE = {
    "gated": ["visible_gaussians", "tile_pairs", "sort_pairs", "sort_comparison_volume",
              "alpha_computations", "blend_ops", "bitmask_tests", "filter_checks"],
    "timed": TIME_FIELDS,
}


def report_rows(**rules):
    """A bench_paper figure or table: its rows matched by "case" under `rules`
    (a row the baseline lacks fails); its "reference" footer is not compared."""
    return {"lists": {"rows": {"key": "case", "extra": "row not in baseline", **rules}}}


# One entry per bench JSON, applied by walk(). The keys of an entry, all optional:
#   scale     the scale objects must match; a mismatch skips the rest
#   gated     fields within tolerance of the baseline ("missing": the message
#             for a gated field the fresh record lacks); a list, EVERY_FIELD
#             or TIME_FIELDS
#   timed     fields within tolerance, under --check-times only (as gated)
#   exact     every field but these (and the lists) must equal the baseline's
#   flags     {field: message}: the fresh value must be true
#   checks    [(message, predicate(new, old))]: False fails, None does not apply
#   required  {section path: message}: what the baseline has, the fresh record
#             must have too (a list non-empty)
#   sections  {name: entry}: sub-objects; gated where the baseline has them,
#             flagged and checked where the fresh run has them
#   lists     {name: entry}: records matched by entry["key"], after "prefix" in
#             the location; "extra" fails a record only the fresh run has, and
#             "fresh_side" walks the fresh records without matching
# Messages are str.format templates over the fresh ({new[...]}) and baseline
# ({old[...]}) records.
BENCHES = {
    "software": {"lists": {"scenes": {
        "key": "scene",
        "checks": [("lossless violation (max diff {new[lossless_max_abs_diff]})",
                    lambda new, old: new.get("lossless_max_abs_diff", 1) == 0)],
        # A fresh output that stops emitting a correctness section must fail,
        # not silently skip its gate.
        "required": {
            "batch": "batch section missing from fresh output",
            "simd.backends": "simd section missing or empty in fresh output",
        },
        "sections": {
            "baseline": RUN_ALL_STAGE,
            "gstg": RUN_ALL_STAGE,
            "ratios": {"gated": ["sort_pair_reduction"]},
            "batch": {"timed": TIME_FIELDS, "flags": {
                "identical_to_sequential": "batch output diverged from sequential rendering"}},
            "simd": {"lists": {"backends": {"key": "backend", "fresh_side": True, "flags": {
                "exact_identical_to_scalar":
                    "exact-mode framebuffer diverged from the scalar backend"}}}},
        },
    }}},
    "temporal": {"scale": True, "lists": {"scenes": {"key": "scene", "lists": {"paths": {
        "key": "path",
        "gated": ["groups_total", "groups_reused", "groups_patched", "groups_resorted",
                  "pairs_reused", "pairs_sorted",
                  "reuse_rate", "sorts_avoided", "sort_volume_reduction"],
        "checks": [("sorts-avoided ratio dropped to zero (cross-frame reuse broke)",
                    lambda new, old: new.get("sorts_avoided", 0) > 0
                    if old.get("sorts_avoided", 0) > 0 else None)],
        "flags": {
            "verify_ok": "kVerify found a reused order that is not bit-identical to sorting",
            "identical_to_off": "temporal output diverged from the per-frame renderer",
        },
    }}}}},
    # Queue/batch depths and the 1 -> 4 client scaling depend on timing and core
    # count: recorded, compared only under --check-times.
    "service": {"scale": True, "lists": {"scenes": {
        "key": "scene",
        "gated": ["frames_per_client", "requests_completed", "requests_failed", "cache_misses",
                  "reuse_pairs", "sorted_pairs", "reuse_pair_ratio"],
        "timed": ["sequential_ms", "wall_ms_1client", "wall_ms_4client",
                  "throughput_fps_1client", "throughput_fps_4client", "scaling_1_to_4"],
        "flags": {
            "identical_to_sequential":
                "concurrent service output diverged from per-request sequential render_gstg",
            "verify_ok":
                "the verify gate found a response that is not bit-identical to render_gstg",
            "malformed_rejected": "a malformed request was not rejected with a typed error",
        },
        # The 1 -> 4 client scaling bar (> 1.5x) is judged by the fresh run
        # itself wherever the machine has >= 4 cores to express it.
        "checks": [("1->4 client throughput scaling fell below 1.5x on a >=4-core machine",
                    lambda new, old: flag(new.get("scaling_ok"))
                    if flag(new.get("scaling_gate_active")) else None)],
    }}},
    "dataset": {
        "scale": True,
        "flags": {
            "fixtures_ok":
                "a loader fixture was mis-sniffed or a PLY round-trip did not reproduce the cloud",
            "compression_ok":
                "the fp16 resident form is no longer >= 2x smaller than the float32 SoA",
            "verify_ok":
                "the streamed decode render is not bit-identical to the up-front decode render",
        },
        "lists": {
            "fixtures": {
                "key": "name",
                "prefix": "fixture",
                "gated": ["gaussians", "cameras"],
                "timed": ["load_ms"],
                "checks": [("sniffed source changed ({new[source]} vs {old[source]})",
                            lambda new, old: new.get("source") == old.get("source"))],
            },
            "scenes": {
                "key": "scene",
                "gated": ["gaussians", "sh_degree", "ply_bytes", "resident_bytes",
                          "float32_bytes", "compression_ratio"],
                "timed": ["load_ms", "encode_ms", "float32_render_ms", "compressed_render_ms",
                          "decode_overhead"],
                "flags": {"verify_ok": "kVerify failed or the streamed image diverged on this scene"},
            },
        },
    },
    "quality": {
        "scale": True,
        "flags": {
            "quality_ok": "a scene's sortless PSNR/SSIM fell below the committed floor",
            "verify_ok": "the kVerify pipeline diverged from pure kSortless",
        },
        "lists": {"scenes": {
            "key": "scene",
            "gated": ["visible_gaussians", "sort_pairs_avoided", "sort_comparison_volume_avoided",
                      "sortless_blend_ops", "exact_blend_ops", "psnr", "ssim"],
            "timed": ["sort_ms_removed", "raster_ms_exact", "raster_ms_sortless",
                      "raster_ms_delta"],
            "checks": [("sortless run sorted {new[sortless_sort_pairs]} pairs (must be 0)",
                        lambda new, old: new.get("sortless_sort_pairs", 1) == 0)],
            "flags": {
                "quality_ok": "sortless PSNR/SSIM fell below this scene's committed floor",
                "verify_ok": "kVerify output or counters diverged from pure kSortless on this scene",
            },
        }},
    },
    "telemetry": {
        "scale": True,
        # Hard flags: the binary computed them on the fresh machine, so they
        # are authoritative regardless of tolerance.
        "flags": {
            "overhead_ok": "tracing overhead {new[overhead_ratio]} exceeded the committed "
                           "limit {new[overhead_limit]} on sort+raster",
            "dropped_ok": "trace rings dropped {new[events_dropped]} events "
                          "(the run must fit the default capacity)",
            "deterministic": "image or counters diverged with tracing enabled",
            "stage_spans_ok": "a pipeline stage emitted no spans into the exported trace",
        },
        # Event and span counts are machine-independent at a fixed scale
        # (single-threaded run): drift means instrumentation was added/removed
        # or a stage stopped executing.
        "gated": ["frames", "repeat", "events_recorded", "trace_events_written"],
        "timed": ["plain_sort_raster_ms", "traced_sort_raster_ms", "overhead_ratio"],
        "sections": {"stage_spans": {"gated": EVERY_FIELD, "missing": "stage '{}' missing"}},
    },
    "paper": {"scale": True, "sections": {
        "table2": report_rows(exact=()),
        "table1": report_rows(gated=EVERY_FIELD),
        "fig3": report_rows(timed=TIME_FIELDS),
        "fig5": report_rows(gated=EVERY_FIELD),
        "fig7": report_rows(gated=EVERY_FIELD),
        "fig11": report_rows(timed=EVERY_FIELD),
        "fig12": report_rows(timed=EVERY_FIELD),
        "fig13": report_rows(timed=TIME_FIELDS),
        "fig14": report_rows(exact=()),
        "fig15": report_rows(exact=()),
        "table3": report_rows(exact=()),
        "ablation": report_rows(exact=()),
        "fp16": report_rows(gated=EVERY_FIELD),
        "rho": report_rows(gated=EVERY_FIELD),
    }},
    "hardware": {
        "exact": ("timestamp_utc", "peak_rss_bytes"),
        "lists": {"scenes": {"key": "scene", "exact": (), "extra": "scene not in baseline"}},
    },
}

# The optional bench sections, in the order they are checked: each
# --<flag>=<fresh> pairs with --<flag>-baseline=<baseline>.
SECTION_FLAGS = [bench for bench in BENCHES if bench != "software"]


def rel_diff(new, old):
    if old == 0:
        return 0.0 if new == 0 else float("inf")
    return abs(new - old) / abs(old)


def flag(value):
    return value in (True, "true")


class Fields(dict):
    """A record for message templates: an absent field reads None."""

    def __missing__(self, key):
        return None


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


def compare_section(gate, where, new, old, keys, missing=MISSING_FIELD):
    for key in keys:
        if key in old:
            if key not in new:
                gate.require(where, False, missing.format(key))
            else:
                gate.check(where, key, new[key], old[key])


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


def join(where, name):
    return f"{where}.{name}" if where else str(name)


def selected(spec, rule, fresh, old):
    """The fields a gated/timed rule names, its EVERY_FIELD/TIME_FIELDS expanded."""
    names = spec.get(rule, [])
    if names == EVERY_FIELD:
        return [k for k in old if k != spec.get("key")]
    if names == TIME_FIELDS:
        return [k for k in old if k.endswith(TIME_FIELDS) and k in fresh]
    return names


def walk(gate, where, spec, new, old, check_times):
    """Applies one table entry to a fresh record and its baseline record.

    Either record is None where only one side has the section: the rules that
    read the baseline run where the baseline has it, the flags and checks
    where the fresh run has it.
    """
    fresh, base = new or {}, old or {}
    if old is not None:
        if spec.get("scale") and fresh.get("scale", {}) != old.get("scale", {}):
            gate.require(where, False, f"scale mismatch (fresh {fresh.get('scale')} vs "
                                       f"baseline {old.get('scale')})")
            return
        compare_section(gate, where, fresh, old, selected(spec, "gated", fresh, old),
                        spec.get("missing", MISSING_FIELD))
        if check_times:
            compare_section(gate, where, fresh, old, selected(spec, "timed", fresh, old))
        if "exact" in spec:
            skip = set(spec["exact"]) | set(spec.get("lists", {}))
            require_equal(gate, where, {k: v for k, v in fresh.items() if k not in skip},
                          {k: v for k, v in old.items() if k not in skip})
        for path, message in spec.get("required", {}).items():
            section, *rest = path.split(".")
            if section in old:
                value = fresh.get(section)
                for key in rest:
                    value = (value or {}).get(key)
                gate.require(join(where, section), value not in (None, []), message)
    if new is not None:
        checks = [(message, flag(new.get(key))) for key, message in spec.get("flags", {}).items()]
        checks += [(message, holds(new, base)) for message, holds in spec.get("checks", [])]
        for message, ok in checks:
            if ok is not None:
                gate.require(where, ok, message.format(new=Fields(new), old=Fields(base)))
    for name, sub in spec.get("sections", {}).items():
        walk(gate, join(where, name), sub, fresh.get(name), base.get(name), check_times)
    for name, sub in spec.get("lists", {}).items():
        if sub.get("fresh_side"):
            records = keyed(gate, where, name, fresh.get(name, []), sub["key"], "fresh")
            for key, record in records.items():
                walk(gate, join(where, key), sub, record, None, check_times)
        elif old is not None:
            walk_list(gate, where, name, sub, fresh.get(name, []), old.get(name, []),
                      check_times)


def keyed(gate, where, name, records, key, side):
    """Indexes a record list by its key field; a record without one fails."""
    out = {}
    for i, record in enumerate(records):
        if key in record:
            out[record[key]] = record
        else:
            gate.require(join(where, f"{name}[{i}]"), False,
                         f"{side} record lacks its key field '{key}'")
    return out


def walk_list(gate, where, name, spec, new, old, check_times):
    """Matches two record lists by spec["key"] and walks each matched pair."""
    key, prefix = spec["key"], spec.get("prefix")
    fresh = keyed(gate, where, name, new, key, "fresh")
    base = keyed(gate, where, name, old, key, "baseline")
    for name in list(base) + [n for n in fresh if n not in base]:
        at = join(where, f"{prefix}.{name}" if prefix else name)
        if name not in fresh:
            gate.require(at, False, f"{prefix or key} missing from fresh output")
        elif name in base:
            walk(gate, at, spec, fresh[name], base[name], check_times)
        elif "extra" in spec:
            gate.require(at, False, spec["extra"])


def report(gate):
    print(f"check_bench: FAIL — {len(gate.failures)} violation(s), {gate.checked} checks:")
    for f in gate.failures:
        print(f"  {f}")
    print("If the change is intentional, refresh the baseline (bench/README.md).")
    return 1


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
    for bench in SECTION_FLAGS:
        if (bench in paths) != (f"{bench}-baseline" in paths):
            print(f"check_bench: --{bench} and --{bench}-baseline must be given together")
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

    fresh_scenes = keyed(gate, "", "scenes", fresh.get("scenes", []), "scene", "fresh")
    base_scenes = keyed(gate, "", "scenes", baseline.get("scenes", []), "scene", "baseline")
    if gate.failures:
        return report(gate)
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

    walk(gate, "", BENCHES["software"], fresh, baseline, check_times)
    for bench in SECTION_FLAGS:
        if bench not in paths:
            continue
        with open(paths[bench]) as f:
            section_fresh = json.load(f)
        with open(paths[f"{bench}-baseline"]) as f:
            section_baseline = json.load(f)
        walk(gate, bench, BENCHES[bench], section_fresh, section_baseline, check_times)

    if gate.failures:
        return report(gate)
    print(
        f"check_bench: OK ({gate.checked} checks within {tolerance * 100.0:.0f}% across "
        f"{len(base_scenes)} scenes)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
