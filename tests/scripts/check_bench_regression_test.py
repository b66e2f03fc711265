#!/usr/bin/env python3
"""Unit tests for scripts/check_bench_regression.py — the CI perf gate.

The gate is the last line of defense against silent perf regressions AND
against its own decay: a selector typo or a bench-format drift that stops
floors from matching would turn it into a green no-op. These tests pin the
failure modes that matter: missing rows exit non-zero (--min-rows), the
per-class p95/completed floors parse and trip, and the transport/leg
selectors never cross-match files they were not written for. Stdlib only,
run as a ctest (see CMakeLists.txt) and on every CI leg.
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

SCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      os.pardir, os.pardir, "scripts",
                      "check_bench_regression.py")


def serve_file(leg="", transport=None, speedup=3.0, parallelism=4,
               classes_p95=None, smoke=True):
    """A minimal bench_serve-shaped JSON document."""
    doc = {
        "bench": "serve",
        "smoke": smoke,
        "leg": leg,
        "hardware_parallelism": parallelism,
        "speedup_batched_vs_batch1": speedup,
        "results": [
            {"path": "batch16", "req_per_s": 1000.0, "requests": 240,
             "completed": 240, "failed": 0},
            {"path": "classes16", "req_per_s": 900.0, "requests": 240,
             "completed": 240, "failed": 0,
             "class_lat": [
                 {"class": "gold", "priority": 0, "requests": 80,
                  "p50_us": 100.0,
                  "p95_us": 200.0 if classes_p95 is None else classes_p95,
                  "slo_us": 20000, "completed_fraction": 1.0},
                 {"class": "bronze", "priority": 2, "requests": 80,
                  "p50_us": 400.0, "p95_us": 800.0, "slo_us": 0,
                  "completed_fraction": 1.0}]},
        ],
    }
    if transport is not None:
        doc["transport"] = transport
    return doc


class GateHarness(unittest.TestCase):
    """Writes floors + bench files into a temp dir and runs the gate."""

    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.addCleanup(self.tmp.cleanup)

    def write(self, name, doc):
        path = os.path.join(self.tmp.name, name)
        with open(path, "w", encoding="utf-8") as f:
            json.dump(doc, f)
        return path

    def run_gate(self, floors, files, extra_args=()):
        floors_path = self.write("floors.json",
                                 {"tolerance": 0.40, "floors": floors})
        cmd = [sys.executable, SCRIPT, "--floors", floors_path]
        cmd += list(extra_args) + files
        return subprocess.run(cmd, capture_output=True, text=True,
                              check=False)

    def assert_gate(self, proc, code, needle=None):
        self.assertEqual(
            proc.returncode, code,
            "exit %d != %d\nstdout:\n%s\nstderr:\n%s"
            % (proc.returncode, code, proc.stdout, proc.stderr))
        if needle is not None:
            self.assertIn(needle, proc.stdout + proc.stderr)


class MinRowsTest(GateHarness):
    def test_no_matching_rows_exits_nonzero(self):
        # A floors file whose selectors match nothing must fail loudly:
        # a silently-skipping gate is format drift, not a pass.
        floors = [{"bench": "serve", "path": "batch99", "smoke": True,
                   "baseline_req_per_s": 100.0}]
        proc = self.run_gate(floors, [self.write("b.json", serve_file())])
        self.assert_gate(proc, 1, "matched any floor")

    def test_min_rows_zero_allows_partial_files(self):
        floors = [{"bench": "serve", "path": "batch99", "smoke": True,
                   "baseline_req_per_s": 100.0}]
        proc = self.run_gate(floors, [self.write("b.json", serve_file())],
                             extra_args=["--min-rows", "0"])
        self.assert_gate(proc, 0)

    def test_unreadable_file_fails(self):
        path = os.path.join(self.tmp.name, "junk.json")
        with open(path, "w", encoding="utf-8") as f:
            f.write("not json {")
        proc = self.run_gate([], [path], extra_args=["--min-rows", "0"])
        self.assert_gate(proc, 1, "unreadable")


class ClassFloorTest(GateHarness):
    FLOOR = [{"bench": "serve", "path": "classes16", "class": "gold",
              "smoke": True, "max_p95_us": 500.0,
              "min_completed_fraction": 1.0}]

    def test_class_floor_passes_within_ceiling(self):
        proc = self.run_gate(
            self.FLOOR,
            [self.write("b.json", serve_file(classes_p95=200.0))])
        self.assert_gate(proc, 0, "classes16 class gold")

    def test_class_floor_trips_on_p95_ceiling(self):
        proc = self.run_gate(
            self.FLOOR,
            [self.write("b.json", serve_file(classes_p95=9999.0))])
        self.assert_gate(proc, 1, "above ceiling")

    def test_class_floor_trips_on_completed_fraction(self):
        doc = serve_file()
        doc["results"][1]["class_lat"][0]["completed_fraction"] = 0.5
        proc = self.run_gate(self.FLOOR, [self.write("b.json", doc)])
        self.assert_gate(proc, 1, "completed only 50%")

    def test_class_selector_only_matches_named_class(self):
        # The bronze entry's worse p95 must not trip a gold-only ceiling.
        floors = [{"bench": "serve", "path": "classes16", "class": "gold",
                   "smoke": True, "max_p95_us": 500.0}]
        proc = self.run_gate(floors, [self.write("b.json", serve_file())])
        self.assert_gate(proc, 0)


class SpeedupAndParallelismTest(GateHarness):
    def test_coalescing_speedup_floor_passes_and_trips(self):
        floors = [{"bench": "serve", "smoke": True, "min_speedup": 1.05}]
        ok = self.run_gate(
            floors, [self.write("a.json", serve_file(speedup=1.5))])
        self.assert_gate(ok, 0, "coalescing speedup")
        bad = self.run_gate(
            floors, [self.write("b.json", serve_file(speedup=0.7))])
        self.assert_gate(bad, 1, "below floor")

    def test_hardware_parallelism_floor(self):
        floors = [{"bench": "serve", "smoke": True,
                   "min_hardware_parallelism": 2}]
        ok = self.run_gate(
            floors, [self.write("a.json", serve_file(parallelism=4))])
        self.assert_gate(ok, 0, "hardware_parallelism = 4")
        bad = self.run_gate(
            floors, [self.write("b.json", serve_file(parallelism=1))])
        self.assert_gate(bad, 1, "too small a runner")


def drift_file(primary="eager_sr:e5m2/e6m5:r=9:subON", pairs=None,
               smoke=True):
    """A minimal bench_drift-shaped JSON document: the self pair plus one
    RN pair unless the caller supplies its own pair rows."""
    if pairs is None:
        pairs = [
            {"primary": primary, "shadow": primary, "samples": 4,
             "final_max_abs": 0.0, "primary_energy_uj": 1.0,
             "shadow_energy_uj": 1.0},
            {"primary": primary, "shadow": "rn:e5m2/e6m5:r=0:subON",
             "samples": 4, "final_max_abs": 1.5,
             "primary_energy_uj": 1.0, "shadow_energy_uj": 0.8},
        ]
    return {"bench": "drift", "smoke": smoke, "model": "resnet20",
            "primary": primary, "samples": 4, "pairs": pairs}


class DriftFloorTest(GateHarness):
    def test_self_pair_zero_ceiling_passes_and_trips(self):
        floors = [{"bench": "drift", "smoke": True, "self": True,
                   "max_final_maxabs": 0.0}]
        ok = self.run_gate(floors, [self.write("a.json", drift_file())])
        self.assert_gate(ok, 0, "max_abs = 0 (ceiling 0)")
        doc = drift_file()
        doc["pairs"][0]["final_max_abs"] = 1e-7  # any nonzero must trip
        bad = self.run_gate(floors, [self.write("b.json", doc)])
        self.assert_gate(bad, 1, "above ceiling")

    def test_shadow_prefix_ceiling(self):
        floors = [{"bench": "drift", "smoke": True, "self": False,
                   "shadow_prefix": "rn:", "max_final_maxabs": 2.0}]
        ok = self.run_gate(floors, [self.write("a.json", drift_file())])
        self.assert_gate(ok, 0, "rn:e5m2/e6m5:r=0:subON")
        doc = drift_file()
        doc["pairs"][1]["final_max_abs"] = 9.0
        bad = self.run_gate(floors, [self.write("b.json", doc)])
        self.assert_gate(bad, 1, "above ceiling")

    def test_self_selector_does_not_match_cross_pairs(self):
        # A 0.0 self ceiling must never gate the genuinely-drifting RN
        # pair; only the self pair is expected to be bitwise.
        floors = [{"bench": "drift", "smoke": True, "self": True,
                   "max_final_maxabs": 0.0}]
        proc = self.run_gate(floors, [self.write("a.json", drift_file())])
        self.assert_gate(proc, 0)

    def test_min_pair_rows_trips_on_shrunken_sweep(self):
        floors = [{"bench": "drift", "smoke": True, "min_pair_rows": 8,
                   "require_energy": True}]
        proc = self.run_gate(floors, [self.write("a.json", drift_file())])
        self.assert_gate(proc, 1, "only 2 drift pair rows")

    def test_require_energy_trips_on_missing_column(self):
        doc = drift_file()
        doc["pairs"][1]["shadow_energy_uj"] = 0.0
        floors = [{"bench": "drift", "smoke": True, "min_pair_rows": 2,
                   "require_energy": True}]
        proc = self.run_gate(floors, [self.write("a.json", doc)])
        self.assert_gate(proc, 1, "missing an energy column")

    def test_empty_series_is_vacuous_failure(self):
        # A pair with zero samples passing its ceiling proves nothing —
        # the gate treats it as a failure, not a pass.
        doc = drift_file()
        doc["pairs"][0]["samples"] = 0
        floors = [{"bench": "drift", "smoke": True, "self": True,
                   "max_final_maxabs": 0.0}]
        proc = self.run_gate(floors, [self.write("a.json", doc)])
        self.assert_gate(proc, 1, "no drift samples")

    def test_smoke_selector_respected(self):
        floors = [{"bench": "drift", "smoke": False, "self": True,
                   "max_final_maxabs": 0.0}]
        proc = self.run_gate(
            floors, [self.write("a.json", drift_file(smoke=True))],
            extra_args=["--min-rows", "0"])
        self.assert_gate(proc, 0, "skip")


class SelectorCrossMatchTest(GateHarness):
    def test_leg_selector_does_not_match_default_files(self):
        # A multicore-leg floor must skip (not gate) a file bench_serve
        # wrote without --leg — and vice versa.
        floors = [{"bench": "serve", "leg": "multicore", "smoke": True,
                   "min_hardware_parallelism": 100}]  # would trip if matched
        proc = self.run_gate(floors,
                             [self.write("b.json", serve_file(leg=""))],
                             extra_args=["--min-rows", "0"])
        self.assert_gate(proc, 0, "skip")

    def test_leg_selector_matches_stamped_files(self):
        floors = [{"bench": "serve", "leg": "multicore", "smoke": True,
                   "min_hardware_parallelism": 2}]
        proc = self.run_gate(
            floors,
            [self.write("b.json", serve_file(leg="multicore"))])
        self.assert_gate(proc, 0, "hardware_parallelism = 4")

    def test_unstamped_floor_skips_stamped_files(self):
        floors = [{"bench": "serve", "smoke": True,
                   "min_hardware_parallelism": 100}]  # would trip if matched
        proc = self.run_gate(
            floors, [self.write("b.json", serve_file(leg="multicore"))],
            extra_args=["--min-rows", "0"])
        self.assert_gate(proc, 0, "skip")

    def test_transport_selector_does_not_cross_match(self):
        # An inproc row floor must never gate a wire (loadgen) file, and a
        # wire floor must never gate an inproc file.
        inproc_floor = [{"bench": "serve", "path": "batch16", "smoke": True,
                         "baseline_req_per_s": 999999.0}]  # would trip
        wire_file = self.write("wire.json", serve_file(transport="wire"))
        proc = self.run_gate(inproc_floor, [wire_file],
                             extra_args=["--min-rows", "0"])
        self.assert_gate(proc, 0, "skip")

        wire_floor = [{"bench": "serve", "transport": "wire",
                       "path": "batch16", "smoke": True,
                       "baseline_req_per_s": 999999.0}]  # would trip
        inproc_file = self.write("inproc.json", serve_file())
        proc = self.run_gate(wire_floor, [inproc_file],
                             extra_args=["--min-rows", "0"])
        self.assert_gate(proc, 0, "skip")

    def test_smoke_selector_respected(self):
        floors = [{"bench": "serve", "smoke": False,
                   "min_hardware_parallelism": 100}]  # would trip if matched
        proc = self.run_gate(
            floors, [self.write("b.json", serve_file(smoke=True))],
            extra_args=["--min-rows", "0"])
        self.assert_gate(proc, 0, "skip")


if __name__ == "__main__":
    unittest.main()
