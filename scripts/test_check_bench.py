#!/usr/bin/env python3
"""Tests for scripts/check_bench.py — the perf-regression gate.

Each test builds synthetic BENCH_*.json documents, writes them to a temp
directory, runs check_bench.py as a subprocess (the same way CI invokes it)
and asserts on the exit code and the violation text. Covers: the identity
run, the +/-15% counter tolerance (both sides), --tolerance, hard
correctness flags (lossless, batch/simd identity, temporal /
dataset / quality / telemetry / service gates), the exact
accelerator-model gate (hardware), the paper report's exact / gated /
timed figures (paper), scale mismatch,
missing scenes/fields, records without their key field, wall-clock
skipping vs --check-times, and CLI
contract errors (unpaired section flags, unknown options).

Run directly (python3 scripts/test_check_bench.py) or via CTest
(check_bench_selftest).
"""

import copy
import json
import os
import subprocess
import sys
import tempfile
import unittest

CHECK_BENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "check_bench.py")

SCALE = {"name": "small", "width": 320, "height": 180}


def software_doc():
    """A minimal but fully featured BENCH_software.json."""
    counters = {
        "visible_gaussians": 1000,
        "tile_pairs": 5000,
        "sort_pairs": 4000,
        "sort_comparison_volume": 40000.0,
        "alpha_computations": 120000,
        "blend_ops": 90000,
        "bitmask_tests": 0,
        "filter_checks": 0,
        "render_ms": 12.5,
    }
    gstg = dict(counters)
    gstg.update(sort_pairs=1500, bitmask_tests=2500, filter_checks=800, render_ms=8.0)
    scene = {
        "scene": "orbit",
        "lossless_max_abs_diff": 0,
        "baseline": counters,
        "gstg": gstg,
        "ratios": {"sort_pair_reduction": 0.625},
        "batch": {"identical_to_sequential": True},
        "simd": {
            "backends": [
                {"backend": "scalar", "exact_identical_to_scalar": True},
                {"backend": "avx2", "exact_identical_to_scalar": True},
            ]
        },
    }
    return {"scale": dict(SCALE), "scenes": [scene]}


def temporal_doc():
    path = {
        "path": "orbit_slow",
        "groups_total": 900,
        "groups_reused": 700,
        "groups_patched": 100,
        "groups_resorted": 100,
        "pairs_reused": 30000,
        "pairs_sorted": 5000,
        "reuse_rate": 0.78,
        "sorts_avoided": 0.77,
        "sort_volume_reduction": 0.85,
        "verify_ok": True,
        "identical_to_off": True,
    }
    return {"scale": dict(SCALE), "scenes": [{"scene": "orbit", "paths": [path]}]}


def dataset_doc():
    return {
        "scale": dict(SCALE),
        "fixtures_ok": True,
        "compression_ok": True,
        "verify_ok": True,
        "fixtures": [
            {"name": "tiny_ply", "source": "ply_binary", "gaussians": 64, "cameras": 2,
             "load_ms": 1.0}
        ],
        "scenes": [
            {
                "scene": "orbit",
                "gaussians": 1000,
                "sh_degree": 0,
                "ply_bytes": 59000,
                "resident_bytes": 28000,
                "float32_bytes": 60000,
                "compression_ratio": 2.14,
                "verify_ok": True,
                "load_ms": 3.0,
            }
        ],
    }


def quality_doc():
    return {
        "scale": dict(SCALE),
        "quality_ok": True,
        "verify_ok": True,
        "scenes": [
            {
                "scene": "orbit",
                "visible_gaussians": 1000,
                "sort_pairs_avoided": 4000,
                "sort_comparison_volume_avoided": 40000.0,
                "sortless_blend_ops": 91000,
                "exact_blend_ops": 90000,
                "psnr": 41.5,
                "ssim": 0.995,
                "sortless_sort_pairs": 0,
                "quality_ok": True,
                "verify_ok": True,
                "sort_ms_removed": 2.5,
            }
        ],
    }


def telemetry_doc():
    return {
        "scale": dict(SCALE),
        "overhead_ok": True,
        "dropped_ok": True,
        "deterministic": True,
        "stage_spans_ok": True,
        "frames": 8,
        "repeat": 3,
        "events_recorded": 4200,
        "trace_events_written": 4200,
        "events_dropped": 0,
        "overhead_ratio": 0.01,
        "overhead_limit": 0.03,
        "stage_spans": {"preprocess": 8, "binning": 8, "sort": 8, "raster": 8},
        "plain_sort_raster_ms": 10.0,
        "traced_sort_raster_ms": 10.1,
    }


def service_doc():
    return {
        "scale": dict(SCALE),
        "scenes": [
            {
                "scene": "orbit",
                "frames_per_client": 16,
                "requests_completed": 64,
                "requests_failed": 0,
                "cache_misses": 1,
                "reuse_pairs": 20000,
                "sorted_pairs": 5000,
                "reuse_pair_ratio": 0.8,
                "identical_to_sequential": True,
                "verify_ok": True,
                "malformed_rejected": True,
                "scaling_gate_active": True,
                "scaling_ok": True,
                "wall_ms_4client": 40.0,
            }
        ],
    }


def hardware_doc():
    def design(cycles):
        return {"total_cycles": cycles, "fps": 1.0e9 / cycles, "bottleneck": "sort",
                "dram_bytes": 3040228, "energy_j": 9.14685e-05}

    scene = {
        "scene": "orbit",
        "baseline": design(79351),
        "gstg": design(55275),
        "ratios": {"speedup_vs_baseline": 1.43557},
    }
    return {"bench": "hardware_sim", "timestamp_utc": "2026-01-01T00:00:00Z",
            "scale": dict(SCALE), "scenes": [scene], "peak_rss_bytes": 1000}


def paper_doc():
    """A BENCH_paper.json with one figure per kind of rule."""
    def figure(*rows):
        return {"reference": "paper reference: ...", "rows": list(rows)}

    return {
        "bench": "paper", "timestamp_utc": "2026-01-01T00:00:00Z", "scale": dict(SCALE),
        "fig3": figure({"case": "AABB/train/8x8", "preprocess_ms": 1.5, "sort_ms": 1.2,
                        "raster_ms": 9.8, "total_ms": 12.5}),
        "fig5": figure({"case": "AABB/train", "tiles_per_gaussian_8x8": 7.68,
                        "tiles_per_gaussian_64x64": 1.55, "ratio_8x8_64x64": 4.94}),
        "fig11": figure({"case": "16+64", "speedup_train": 0.92}),
        "fig14": figure({"case": "train", "gscore_speedup": 1.32, "gstg_speedup": 1.44,
                         "gstg_total_cycles": 55275, "gstg_bottleneck": "sort"}),
        "peak_rss_bytes": 1000,
    }


class CheckBenchTest(unittest.TestCase):
    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory(prefix="check_bench_test_")
        self.dir = self._tmp.name

    def tearDown(self):
        self._tmp.cleanup()

    def write(self, name, doc):
        path = os.path.join(self.dir, name)
        with open(path, "w") as f:
            json.dump(doc, f)
        return path

    def run_gate(self, fresh, baseline, *extra, fresh_name="fresh.json",
                 base_name="base.json"):
        cmd = [sys.executable, CHECK_BENCH, self.write(fresh_name, fresh),
               self.write(base_name, baseline), *extra]
        return subprocess.run(cmd, capture_output=True, text=True)

    def assert_fails(self, result, *needles):
        self.assertEqual(result.returncode, 1, result.stdout + result.stderr)
        for needle in needles:
            self.assertIn(needle, result.stdout)

    # ---- the software gate --------------------------------------------

    def test_identical_passes(self):
        doc = software_doc()
        result = self.run_gate(doc, copy.deepcopy(doc))
        self.assertEqual(result.returncode, 0, result.stdout + result.stderr)
        self.assertIn("check_bench: OK", result.stdout)

    def test_counter_drift_beyond_tolerance_fails(self):
        fresh = software_doc()
        fresh["scenes"][0]["gstg"]["sort_pairs"] = 2000  # +33% vs 1500
        self.assert_fails(self.run_gate(fresh, software_doc()),
                          "orbit.gstg.sort_pairs")

    def test_counter_drift_within_tolerance_passes(self):
        fresh = software_doc()
        fresh["scenes"][0]["gstg"]["sort_pairs"] = 1600  # +6.7%
        self.assertEqual(self.run_gate(fresh, software_doc()).returncode, 0)

    def test_tolerance_option_tightens_the_gate(self):
        fresh = software_doc()
        fresh["scenes"][0]["gstg"]["sort_pairs"] = 1600
        self.assert_fails(
            self.run_gate(fresh, software_doc(), "--tolerance=0.05"),
            "orbit.gstg.sort_pairs")

    def test_drift_from_zero_is_infinite(self):
        fresh = software_doc()
        fresh["scenes"][0]["baseline"]["bitmask_tests"] = 7  # baseline has 0
        self.assert_fails(self.run_gate(fresh, software_doc()),
                          "orbit.baseline.bitmask_tests")

    def test_ratio_drift_fails(self):
        fresh = software_doc()
        fresh["scenes"][0]["ratios"]["sort_pair_reduction"] = 0.3
        self.assert_fails(self.run_gate(fresh, software_doc()),
                          "orbit.ratios.sort_pair_reduction")

    def test_lossless_violation_is_a_hard_failure(self):
        fresh = software_doc()
        fresh["scenes"][0]["lossless_max_abs_diff"] = 2
        self.assert_fails(self.run_gate(fresh, software_doc()), "lossless violation")

    def test_batch_divergence_fails(self):
        fresh = software_doc()
        fresh["scenes"][0]["batch"]["identical_to_sequential"] = False
        self.assert_fails(self.run_gate(fresh, software_doc()),
                          "batch output diverged")

    def test_missing_batch_section_fails(self):
        fresh = software_doc()
        del fresh["scenes"][0]["batch"]
        self.assert_fails(self.run_gate(fresh, software_doc()),
                          "batch section missing")

    def test_simd_backend_divergence_fails(self):
        fresh = software_doc()
        fresh["scenes"][0]["simd"]["backends"][1]["exact_identical_to_scalar"] = False
        self.assert_fails(self.run_gate(fresh, software_doc()), "simd.avx2")

    def test_simd_backend_without_its_key_fails(self):
        fresh = software_doc()
        del fresh["scenes"][0]["simd"]["backends"][1]["backend"]
        self.assert_fails(self.run_gate(fresh, software_doc()),
                          "orbit.simd.backends[1]: fresh record lacks its key field 'backend'")

    def test_missing_scene_fails(self):
        fresh = software_doc()
        fresh["scenes"] = []
        self.assert_fails(self.run_gate(fresh, software_doc()), "scenes missing")

    def test_scene_without_its_key_fails(self):
        fresh = software_doc()
        del fresh["scenes"][0]["scene"]
        self.assert_fails(self.run_gate(fresh, software_doc()),
                          "scenes[0]: fresh record lacks its key field 'scene'")

    def test_extra_scene_is_noted_but_passes(self):
        fresh = software_doc()
        extra = copy.deepcopy(fresh["scenes"][0])
        extra["scene"] = "flyby"
        fresh["scenes"].append(extra)
        result = self.run_gate(fresh, software_doc())
        self.assertEqual(result.returncode, 0)
        self.assertIn("not in baseline", result.stdout)

    def test_scale_mismatch_fails(self):
        fresh = software_doc()
        fresh["scale"]["name"] = "full"
        self.assert_fails(self.run_gate(fresh, software_doc()), "scale mismatch")

    def test_missing_counter_field_fails(self):
        fresh = software_doc()
        del fresh["scenes"][0]["gstg"]["blend_ops"]
        self.assert_fails(self.run_gate(fresh, software_doc()),
                          "missing field 'blend_ops'")

    def test_times_skipped_by_default_but_gated_with_check_times(self):
        fresh = software_doc()
        fresh["scenes"][0]["gstg"]["render_ms"] = 80.0  # 10x slower
        self.assertEqual(self.run_gate(fresh, software_doc()).returncode, 0)
        self.assert_fails(
            self.run_gate(fresh, software_doc(), "--check-times"),
            "orbit.gstg.render_ms")

    # ---- CLI contract -------------------------------------------------

    def test_unpaired_section_flag_fails(self):
        doc = software_doc()
        temporal = self.write("t.json", temporal_doc())
        result = self.run_gate(doc, copy.deepcopy(doc), f"--temporal={temporal}")
        self.assert_fails(result, "--temporal and --temporal-baseline")

    def test_unknown_option_fails(self):
        doc = software_doc()
        self.assert_fails(self.run_gate(doc, copy.deepcopy(doc), "--frobnicate"),
                          "unknown option")

    def test_missing_positional_args_usage(self):
        result = subprocess.run([sys.executable, CHECK_BENCH],
                                capture_output=True, text=True)
        self.assertEqual(result.returncode, 1)
        self.assertIn("Usage:", result.stdout)

    # ---- section gates ------------------------------------------------

    def section_gate(self, flag, fresh_doc, base_doc, *extra):
        sw = software_doc()
        fresh = self.write(f"{flag}_fresh.json", fresh_doc)
        base = self.write(f"{flag}_base.json", base_doc)
        return self.run_gate(sw, copy.deepcopy(sw),
                             f"--{flag}={fresh}", f"--{flag}-baseline={base}", *extra)

    def test_temporal_identical_passes(self):
        result = self.section_gate("temporal", temporal_doc(), temporal_doc())
        self.assertEqual(result.returncode, 0, result.stdout)

    def test_temporal_reuse_drift_fails(self):
        fresh = temporal_doc()
        fresh["scenes"][0]["paths"][0]["reuse_rate"] = 0.4
        self.assert_fails(self.section_gate("temporal", fresh, temporal_doc()),
                          "temporal.orbit.orbit_slow.reuse_rate")

    def test_temporal_verify_flag_fails(self):
        fresh = temporal_doc()
        fresh["scenes"][0]["paths"][0]["verify_ok"] = False
        self.assert_fails(self.section_gate("temporal", fresh, temporal_doc()),
                          "kVerify")

    def test_temporal_sorts_avoided_collapse_fails(self):
        fresh = temporal_doc()
        base = temporal_doc()
        # Drift the fresh ratio to zero while keeping the baseline positive;
        # widen the tolerance so only the positivity gate can fire.
        fresh["scenes"][0]["paths"][0]["sorts_avoided"] = 0
        self.assert_fails(
            self.section_gate("temporal", fresh, base, "--tolerance=10.0"),
            "sorts-avoided ratio dropped to zero")

    def test_dataset_compression_gate_fails(self):
        fresh = dataset_doc()
        fresh["compression_ok"] = False
        self.assert_fails(self.section_gate("dataset", fresh, dataset_doc()),
                          "no longer >= 2x smaller")

    def test_dataset_sniffed_source_change_fails(self):
        fresh = dataset_doc()
        fresh["fixtures"][0]["source"] = "ply_ascii"
        self.assert_fails(self.section_gate("dataset", fresh, dataset_doc()),
                          "sniffed source changed")

    def test_quality_floor_gate_fails(self):
        fresh = quality_doc()
        fresh["quality_ok"] = False
        self.assert_fails(self.section_gate("quality", fresh, quality_doc()),
                          "PSNR/SSIM fell below")

    def test_quality_sortless_sorted_pairs_fails(self):
        fresh = quality_doc()
        fresh["scenes"][0]["sortless_sort_pairs"] = 123
        self.assert_fails(self.section_gate("quality", fresh, quality_doc()),
                          "sortless run sorted 123 pairs")

    def test_telemetry_overhead_gate_fails(self):
        fresh = telemetry_doc()
        fresh["overhead_ok"] = False
        self.assert_fails(self.section_gate("telemetry", fresh, telemetry_doc()),
                          "tracing overhead")

    def test_telemetry_stage_span_drift_fails(self):
        fresh = telemetry_doc()
        fresh["stage_spans"]["sort"] = 0
        self.assert_fails(self.section_gate("telemetry", fresh, telemetry_doc()),
                          "telemetry.stage_spans.sort")

    def test_telemetry_times_only_under_check_times(self):
        fresh = telemetry_doc()
        fresh["traced_sort_raster_ms"] = 99.0
        self.assertEqual(
            self.section_gate("telemetry", fresh, telemetry_doc()).returncode, 0)
        self.assert_fails(
            self.section_gate("telemetry", fresh, telemetry_doc(), "--check-times"),
            "telemetry.traced_sort_raster_ms")

    def test_service_malformed_rejection_gate_fails(self):
        fresh = service_doc()
        fresh["scenes"][0]["malformed_rejected"] = False
        self.assert_fails(self.section_gate("service", fresh, service_doc()),
                          "malformed request was not rejected")

    def test_service_times_skipped_by_default(self):
        fresh = service_doc()
        fresh["scenes"][0]["wall_ms_4client"] = 4000.0
        self.assertEqual(
            self.section_gate("service", fresh, service_doc()).returncode, 0)

    def test_service_counter_drift_fails(self):
        fresh = service_doc()
        fresh["scenes"][0]["reuse_pairs"] = 10000
        self.assert_fails(self.section_gate("service", fresh, service_doc()),
                          "service.orbit.reuse_pairs")

    def test_hardware_identical_passes(self):
        fresh = hardware_doc()
        fresh["timestamp_utc"] = "2026-02-02T00:00:00Z"  # ignored
        fresh["peak_rss_bytes"] = 2000                  # ignored
        result = self.section_gate("hardware", fresh, hardware_doc())
        self.assertEqual(result.returncode, 0, result.stdout)

    def test_hardware_cycle_change_fails(self):
        fresh = hardware_doc()
        fresh["scenes"][0]["gstg"]["total_cycles"] += 1  # exact: no tolerance
        self.assert_fails(self.section_gate("hardware", fresh, hardware_doc()),
                          "hardware.orbit.gstg.total_cycles")

    def test_hardware_missing_scene_fails(self):
        fresh = hardware_doc()
        fresh["scenes"] = []
        self.assert_fails(self.section_gate("hardware", fresh, hardware_doc()),
                          "hardware.orbit: scene missing")

    def test_paper_identical_passes(self):
        fresh = paper_doc()
        fresh["timestamp_utc"] = "2026-02-02T00:00:00Z"  # ignored
        fresh["fig5"]["reference"] = "a reworded footer"  # not gated
        result = self.section_gate("paper", fresh, paper_doc())
        self.assertEqual(result.returncode, 0, result.stdout)

    def test_paper_simulated_cycles_are_exact(self):
        fresh = paper_doc()
        fresh["fig14"]["rows"][0]["gstg_total_cycles"] += 1
        self.assert_fails(self.section_gate("paper", fresh, paper_doc()),
                          "paper.fig14.train.gstg_total_cycles: 55276 vs baseline 55275")

    def test_paper_counter_drift_fails(self):
        fresh = paper_doc()
        fresh["fig5"]["rows"][0]["tiles_per_gaussian_8x8"] *= 1.2
        self.assert_fails(self.section_gate("paper", fresh, paper_doc()),
                          "paper.fig5.AABB/train.tiles_per_gaussian_8x8")

    def test_paper_missing_figure_fails(self):
        fresh = paper_doc()
        del fresh["fig14"]
        self.assert_fails(self.section_gate("paper", fresh, paper_doc()),
                          "paper.fig14.train: case missing from fresh output")

    def test_paper_row_not_in_baseline_fails(self):
        fresh = paper_doc()
        fresh["fig5"]["rows"].append(dict(fresh["fig5"]["rows"][0], case="AABB/truck"))
        self.assert_fails(self.section_gate("paper", fresh, paper_doc()),
                          "paper.fig5.AABB/truck: row not in baseline")

    def test_paper_scale_mismatch_fails(self):
        self.assert_section_scale_mismatch_fails("paper", paper_doc)

    def test_paper_times_only_under_check_times(self):
        fresh = paper_doc()
        fresh["fig3"]["rows"][0]["total_ms"] *= 10
        fresh["fig11"]["rows"][0]["speedup_train"] *= 10
        self.assertEqual(self.section_gate("paper", fresh, paper_doc()).returncode, 0)
        self.assert_fails(self.section_gate("paper", fresh, paper_doc(), "--check-times"),
                          "paper.fig3.AABB/train/8x8.total_ms",
                          "paper.fig11.16+64.speedup_train")

    # ---- one case per gate the cases above leave untripped ------------

    def test_missing_simd_section_fails(self):
        fresh = software_doc()
        del fresh["scenes"][0]["simd"]
        self.assert_fails(self.run_gate(fresh, software_doc()),
                          "orbit.simd: simd section missing or empty")

    def test_temporal_identical_to_off_fails(self):
        fresh = temporal_doc()
        fresh["scenes"][0]["paths"][0]["identical_to_off"] = False
        self.assert_fails(self.section_gate("temporal", fresh, temporal_doc()),
                          "temporal.orbit.orbit_slow: temporal output diverged")

    def test_temporal_missing_path_fails(self):
        fresh = temporal_doc()
        fresh["scenes"][0]["paths"] = []
        self.assert_fails(self.section_gate("temporal", fresh, temporal_doc()),
                          "temporal.orbit.orbit_slow: path missing from fresh output")

    def test_temporal_path_without_its_key_fails(self):
        fresh = temporal_doc()
        del fresh["scenes"][0]["paths"][0]["path"]
        self.assert_fails(self.section_gate("temporal", fresh, temporal_doc()),
                          "temporal.orbit.paths[0]: fresh record lacks its key field 'path'")

    def test_temporal_missing_scene_fails(self):
        fresh = temporal_doc()
        fresh["scenes"] = []
        self.assert_fails(self.section_gate("temporal", fresh, temporal_doc()),
                          "temporal.orbit: scene missing from fresh output")

    def test_dataset_fixtures_ok_gate_fails(self):
        fresh = dataset_doc()
        fresh["fixtures_ok"] = False
        self.assert_fails(self.section_gate("dataset", fresh, dataset_doc()),
                          "dataset: a loader fixture was mis-sniffed")

    def test_dataset_verify_ok_gate_fails(self):
        fresh = dataset_doc()
        fresh["verify_ok"] = False
        self.assert_fails(self.section_gate("dataset", fresh, dataset_doc()),
                          "dataset: the streamed decode render is not bit-identical")

    def test_dataset_scene_verify_ok_fails(self):
        fresh = dataset_doc()
        fresh["scenes"][0]["verify_ok"] = False
        self.assert_fails(self.section_gate("dataset", fresh, dataset_doc()),
                          "dataset.orbit: kVerify failed or the streamed image diverged")

    def test_dataset_missing_scene_fails(self):
        fresh = dataset_doc()
        fresh["scenes"] = []
        self.assert_fails(self.section_gate("dataset", fresh, dataset_doc()),
                          "dataset.orbit: scene missing from fresh output")

    def test_dataset_missing_fixture_fails(self):
        fresh = dataset_doc()
        fresh["fixtures"] = []
        self.assert_fails(self.section_gate("dataset", fresh, dataset_doc()),
                          "dataset.fixture.tiny_ply: fixture missing from fresh output")

    def test_dataset_fixture_count_drift_fails(self):
        fresh = dataset_doc()
        fresh["fixtures"][0]["cameras"] = 3
        self.assert_fails(self.section_gate("dataset", fresh, dataset_doc()),
                          "dataset.fixture.tiny_ply.cameras")

    def test_dataset_times_only_under_check_times(self):
        fresh = dataset_doc()
        fresh["fixtures"][0]["load_ms"] = 10.0
        fresh["scenes"][0]["load_ms"] = 30.0
        self.assertEqual(
            self.section_gate("dataset", fresh, dataset_doc()).returncode, 0)
        self.assert_fails(
            self.section_gate("dataset", fresh, dataset_doc(), "--check-times"),
            "dataset.fixture.tiny_ply.load_ms", "dataset.orbit.load_ms")

    def test_quality_verify_ok_gate_fails(self):
        fresh = quality_doc()
        fresh["verify_ok"] = False
        self.assert_fails(self.section_gate("quality", fresh, quality_doc()),
                          "quality: the kVerify pipeline diverged from pure kSortless")

    def test_quality_scene_verify_ok_fails(self):
        fresh = quality_doc()
        fresh["scenes"][0]["verify_ok"] = False
        self.assert_fails(self.section_gate("quality", fresh, quality_doc()),
                          "quality.orbit: kVerify output or counters diverged")

    def test_quality_scene_quality_ok_fails(self):
        fresh = quality_doc()
        fresh["scenes"][0]["quality_ok"] = False
        self.assert_fails(self.section_gate("quality", fresh, quality_doc()),
                          "quality.orbit: sortless PSNR/SSIM fell below this scene's")

    def test_quality_times_only_under_check_times(self):
        fresh = quality_doc()
        fresh["scenes"][0]["sort_ms_removed"] = 25.0
        self.assertEqual(
            self.section_gate("quality", fresh, quality_doc()).returncode, 0)
        self.assert_fails(
            self.section_gate("quality", fresh, quality_doc(), "--check-times"),
            "quality.orbit.sort_ms_removed")

    def test_telemetry_dropped_ok_gate_fails(self):
        fresh = telemetry_doc()
        fresh["dropped_ok"] = False
        fresh["events_dropped"] = 17
        self.assert_fails(self.section_gate("telemetry", fresh, telemetry_doc()),
                          "telemetry: trace rings dropped 17 events")

    def test_telemetry_deterministic_gate_fails(self):
        fresh = telemetry_doc()
        fresh["deterministic"] = False
        self.assert_fails(self.section_gate("telemetry", fresh, telemetry_doc()),
                          "telemetry: image or counters diverged with tracing enabled")

    def test_telemetry_stage_spans_ok_gate_fails(self):
        fresh = telemetry_doc()
        fresh["stage_spans_ok"] = False
        self.assert_fails(self.section_gate("telemetry", fresh, telemetry_doc()),
                          "telemetry: a pipeline stage emitted no spans")

    def test_telemetry_missing_stage_fails(self):
        fresh = telemetry_doc()
        del fresh["stage_spans"]["sort"]
        self.assert_fails(self.section_gate("telemetry", fresh, telemetry_doc()),
                          "telemetry.stage_spans: stage 'sort' missing")

    def test_service_identical_to_sequential_fails(self):
        fresh = service_doc()
        fresh["scenes"][0]["identical_to_sequential"] = False
        self.assert_fails(self.section_gate("service", fresh, service_doc()),
                          "service.orbit: concurrent service output diverged")

    def test_service_verify_ok_fails(self):
        fresh = service_doc()
        fresh["scenes"][0]["verify_ok"] = False
        self.assert_fails(self.section_gate("service", fresh, service_doc()),
                          "service.orbit: the verify gate found a response")

    def test_service_scaling_ok_fails_when_gate_active(self):
        fresh = service_doc()
        fresh["scenes"][0]["scaling_ok"] = False
        self.assert_fails(self.section_gate("service", fresh, service_doc()),
                          "service.orbit: 1->4 client throughput scaling fell below")

    def test_service_scaling_ok_ignored_when_gate_inactive(self):
        fresh = service_doc()
        fresh["scenes"][0]["scaling_gate_active"] = False
        fresh["scenes"][0]["scaling_ok"] = False
        result = self.section_gate("service", fresh, service_doc())
        self.assertEqual(result.returncode, 0, result.stdout)

    def test_service_times_gated_with_check_times(self):
        fresh = service_doc()
        fresh["scenes"][0]["wall_ms_4client"] = 4000.0
        self.assert_fails(
            self.section_gate("service", fresh, service_doc(), "--check-times"),
            "service.orbit.wall_ms_4client")

    def test_hardware_scene_not_in_baseline_fails(self):
        fresh = hardware_doc()
        extra = copy.deepcopy(fresh["scenes"][0])
        extra["scene"] = "flyby"
        fresh["scenes"].append(extra)
        self.assert_fails(self.section_gate("hardware", fresh, hardware_doc()),
                          "hardware.flyby: scene not in baseline")

    def test_hardware_header_change_fails(self):
        fresh = hardware_doc()
        fresh["bench"] = "hardware_sim_v2"
        self.assert_fails(self.section_gate("hardware", fresh, hardware_doc()),
                          "hardware.bench: hardware_sim_v2 vs baseline hardware_sim")

    def test_hardware_missing_field_fails(self):
        fresh = hardware_doc()
        del fresh["scenes"][0]["gstg"]["energy_j"]
        self.assert_fails(self.section_gate("hardware", fresh, hardware_doc()),
                          "hardware.orbit.gstg: missing field 'energy_j'")

    def assert_section_scale_mismatch_fails(self, flag, make_doc):
        fresh = make_doc()
        fresh["scale"]["name"] = "full"
        self.assert_fails(self.section_gate(flag, fresh, make_doc()),
                          f"{flag}: scale mismatch")

    def test_temporal_scale_mismatch_fails(self):
        self.assert_section_scale_mismatch_fails("temporal", temporal_doc)

    def test_service_scale_mismatch_fails(self):
        self.assert_section_scale_mismatch_fails("service", service_doc)

    def test_dataset_scale_mismatch_fails(self):
        self.assert_section_scale_mismatch_fails("dataset", dataset_doc)

    def test_quality_scale_mismatch_fails(self):
        self.assert_section_scale_mismatch_fails("quality", quality_doc)

    def test_telemetry_scale_mismatch_fails(self):
        self.assert_section_scale_mismatch_fails("telemetry", telemetry_doc)


if __name__ == "__main__":
    unittest.main(verbosity=2)
