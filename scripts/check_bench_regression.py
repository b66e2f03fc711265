#!/usr/bin/env python3
"""Throughput-regression gate over BENCH_*.json files.

Compares bench output files (the CI smoke runs, or the checked-in
docs/bench trend files) against the baseline values recorded in
docs/bench/bench_floors.json. A row fails when its throughput drops more
than `tolerance` (default 40%, generous: CI runners are noisy and smoke
sizes are tiny) below its baseline — catching the silent perf regressions
a green test suite would wave through, without flaking on machine jitter.

Floors file format:

    {
      "tolerance": 0.40,
      "floors": [
        {"bench": "gemm_throughput", "path": "fast", "threads": 1,
         "smoke": true, "baseline_mmac_per_s": 150.0},
        {"bench": "gemm_throughput", "path": "fast", "threads": 1,
         "smoke": false, "scenario_prefix": "rn:",
         "baseline_mmac_per_s": 349.0},
        {"bench": "layers", "smoke": true, "aggregate": true,
         "baseline_mmac_per_s": 100.0},
        {"bench": "serve", "path": "batch16", "smoke": true,
         "baseline_req_per_s": 2400.0},
        {"bench": "serve", "path": "chaos3", "smoke": true,
         "require_resolved": true, "min_completed_fraction": 0.5},
        {"bench": "serve", "smoke": false, "min_speedup": 1.05},
        {"bench": "serve", "transport": "wire", "path": "loadgen",
         "smoke": true, "baseline_req_per_s": 400.0,
         "require_resolved": true},
        {"bench": "serve", "leg": "multicore", "smoke": true,
         "min_hardware_parallelism": 2},
        {"bench": "serve", "path": "classes16", "class": "gold",
         "smoke": true, "max_p95_us": 500000.0,
         "min_completed_fraction": 1.0},
        {"bench": "drift", "smoke": true, "min_pair_rows": 8,
         "require_energy": true},
        {"bench": "drift", "smoke": true, "self": true,
         "max_final_maxabs": 0.0},
        {"bench": "drift", "smoke": true, "self": false,
         "shadow_prefix": "rn:", "max_final_maxabs": 4.0}
      ]
    }

A floor matches a gemm_throughput row on (path, threads, the file's smoke
flag, and an optional scenario prefix); a `layers` floor with "aggregate"
matches the whole file (total MACs / total GEMM seconds). A `serve` floor
with "path" matches that serving leg's requests/sec against
"baseline_req_per_s" (same tolerance machinery); a `serve` floor with
"min_speedup" checks the file's recorded batchN-vs-batch1 coalescing
speedup directly (no tolerance — it is already a floor; note the speedup
is a strong function of core count, so full-size floors pin the recorded
trend file, not an arbitrary target). Fleet/chaos serve legs carry
completed/failed counters; a floor with "require_resolved" asserts
completed + failed == requests (no request vanished or hung during the
chaos run) and "min_completed_fraction" bounds how much of the load the
degraded fleet may shed/fail (both no-tolerance checks — they are
correctness floors, not throughput). "min_hardware_parallelism" asserts
the file's recorded hardware_parallelism (no tolerance), so the multicore
CI leg proves it ran on a runner with cores to use. A serve
floor carrying "class" matches a row's per-class "class_lat" entries by
class name and applies "max_p95_us" (a latency CEILING, no tolerance) and
per-class "min_completed_fraction" — the SLO-ordering gate. Serve floors
additionally select on
"transport": "inproc" (the default, bench_serve's in-process rows) vs
"wire" (loadgen's cross-process rows over the TCP protocol — a file-level
key in the loadgen JSON), and on "leg" (matched against the file-level
"leg" key bench_serve stamps with --leg; rules without "leg" match only
files without one, so a multicore floor can never gate a single-core
smoke file by accident). A "drift" floor gates bench_drift's scenario-pair
rows: pair selectors are "primary"/"shadow" (exact scenario strings),
"primary_prefix"/"shadow_prefix", and "self" (shadow == primary — the
zero-drift anchor pair); "max_final_maxabs" is a no-tolerance CEILING on
the pair's final-output max-abs divergence (the arithmetic is
deterministic, so any change is real), and file-level drift floors carry
"min_pair_rows" (sweep completeness) and "require_energy" (every pair
joined against both projected-MAC-energy columns). Rows without a
matching floor pass silently (new paths get floors when their numbers are
recorded); floors that match nothing in the given files are reported as
skipped, not failed — each CI job only produces a subset. Stdlib only.

Usage: check_bench_regression.py [--floors PATH] [--tolerance F] FILE...
"""

import argparse
import json
import sys


def load(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def scenario_matches(rule, data):
    prefix = rule.get("scenario_prefix")
    return prefix is None or str(data.get("scenario", "")).startswith(prefix)


def drift_pair_matches(rule, row):
    """Pair-row selectors of a drift floor: exact primary/shadow scenario
    strings, prefixes, and "self" (whether shadow == primary — the
    zero-drift anchor pair). Selectors compose; absent ones match all."""
    if rule.get("self") is not None:
        if (row.get("shadow") == row.get("primary")) != bool(rule["self"]):
            return False
    if rule.get("primary") is not None and \
            rule["primary"] != row.get("primary"):
        return False
    if rule.get("primary_prefix") is not None and \
            not str(row.get("primary", "")).startswith(rule["primary_prefix"]):
        return False
    if rule.get("shadow") is not None and rule["shadow"] != row.get("shadow"):
        return False
    if rule.get("shadow_prefix") is not None and \
            not str(row.get("shadow", "")).startswith(rule["shadow_prefix"]):
        return False
    return True


def check_file(path, data, floors, tolerance, report, report_speedup,
               report_resolved, report_parallelism, report_class,
               report_drift, report_drift_file):
    bench = data.get("bench")
    smoke = bool(data.get("smoke", False))
    matched = set()

    if bench == "drift":
        pairs = data.get("pairs", [])
        for i, rule in enumerate(floors):
            if rule.get("bench") != bench:
                continue
            if bool(rule.get("smoke", False)) != smoke:
                continue
            if "min_pair_rows" in rule or rule.get("require_energy"):
                matched.add(i)
                report_drift_file(path, pairs, rule)
                continue
            for row in pairs:
                if not drift_pair_matches(rule, row):
                    continue
                matched.add(i)
                report_drift(path, row, rule)
        return matched

    if bench == "serve":
        # In-process bench_serve files carry no "transport" key; loadgen's
        # cross-process rows say "wire". Rules default to "inproc" so the
        # pre-existing floors never match a loadgen file by accident. The
        # "leg" selector works the same way against the file-level key
        # bench_serve stamps with --leg (default "").
        transport = str(data.get("transport", "inproc"))
        leg = str(data.get("leg", ""))
        for i, rule in enumerate(floors):
            if rule.get("bench") != bench:
                continue
            if bool(rule.get("smoke", False)) != smoke:
                continue
            if str(rule.get("transport", "inproc")) != transport:
                continue
            if str(rule.get("leg", "")) != leg:
                continue
            if "min_speedup" in rule:
                matched.add(i)
                report_speedup(path, data.get("speedup_batched_vs_batch1"),
                               rule)
                continue
            if "min_hardware_parallelism" in rule:
                matched.add(i)
                report_parallelism(path, data.get("hardware_parallelism"),
                                   rule)
                continue
            for row in data.get("results", []):
                if rule.get("path") != row.get("path"):
                    continue
                if "class" in rule:
                    for cl in row.get("class_lat", []):
                        if cl.get("class") != rule.get("class"):
                            continue
                        matched.add(i)
                        report_class(path, row, cl, rule)
                    continue
                matched.add(i)
                if "baseline_req_per_s" in rule:
                    report(path, "%s req/s" % row.get("path"),
                           row.get("req_per_s", 0.0), rule, tolerance)
                if rule.get("require_resolved") or \
                        "min_completed_fraction" in rule:
                    report_resolved(path, row, rule)
        return matched

    if bench == "layers":
        total_macs = sum(r.get("gemm_macs", 0) for r in data.get("results", []))
        total_secs = sum(r.get("gemm_seconds", 0.0)
                         for r in data.get("results", []))
        aggregate = total_macs / total_secs / 1e6 if total_secs > 0 else 0.0
        for i, rule in enumerate(floors):
            if rule.get("bench") != bench or not rule.get("aggregate"):
                continue
            if bool(rule.get("smoke", False)) != smoke:
                continue
            matched.add(i)
            report(path, "aggregate", aggregate, rule, tolerance)
        return matched

    for row in data.get("results", []):
        for i, rule in enumerate(floors):
            if rule.get("bench") != bench:
                continue
            if rule.get("path") != row.get("path"):
                continue
            if rule.get("threads") is not None and \
                    rule.get("threads") != row.get("threads"):
                continue
            if bool(rule.get("smoke", False)) != smoke:
                continue
            if not scenario_matches(rule, data):
                continue
            matched.add(i)
            label = "%s@%d" % (row.get("path"), row.get("threads", 0))
            report(path, label, row.get("mmac_per_s", 0.0), rule, tolerance)
    return matched


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--floors", default="docs/bench/bench_floors.json")
    ap.add_argument("--tolerance", type=float, default=None,
                    help="override the floors file's tolerance fraction")
    ap.add_argument("--min-rows", type=int, default=1,
                    help="fail unless at least this many rows matched a "
                         "floor — catches bench-format or row-name drift "
                         "that would otherwise turn the gate into a no-op")
    ap.add_argument("files", nargs="+")
    args = ap.parse_args()

    spec = load(args.floors)
    floors = spec.get("floors", [])
    tolerance = args.tolerance if args.tolerance is not None \
        else float(spec.get("tolerance", 0.40))

    failures = []
    checked = [0]

    def report(path, label, value, rule, tol):
        # gemm/layers floors are MMAC/s; serve leg floors are requests/sec.
        baseline_key = "baseline_mmac_per_s" if "baseline_mmac_per_s" in rule \
            else "baseline_req_per_s"
        unit = "MMAC/s" if baseline_key == "baseline_mmac_per_s" else "req/s"
        floor = float(rule[baseline_key]) * (1.0 - tol)
        checked[0] += 1
        ok = value >= floor
        print("%s %s: %s = %.1f %s (baseline %.1f, floor %.1f)"
              % ("ok  " if ok else "FAIL", path, label, value, unit,
                 rule[baseline_key], floor))
        if not ok:
            failures.append("%s: %s dropped to %.1f %s, floor %.1f"
                            % (path, label, value, unit, floor))

    def report_resolved(path, row, rule):
        # Chaos-leg correctness floors: every request resolved (completed
        # or failed typed — nothing vanished/hung), and the degraded fleet
        # still completed at least min_completed_fraction of the load.
        label = row.get("path", "?")
        requests = int(row.get("requests", 0))
        completed = int(row.get("completed", 0))
        failed = int(row.get("failed", 0))
        checked[0] += 1
        ok = True
        if rule.get("require_resolved") and completed + failed != requests:
            ok = False
            failures.append(
                "%s: %s left %d of %d requests unresolved"
                % (path, label, requests - completed - failed, requests))
        frac = completed / requests if requests else 0.0
        need = float(rule.get("min_completed_fraction", 0.0))
        if frac < need:
            ok = False
            failures.append(
                "%s: %s completed only %.0f%% of requests (floor %.0f%%)"
                % (path, label, 100.0 * frac, 100.0 * need))
        print("%s %s: %s resolved %d+%d of %d (completed %.0f%%%s)"
              % ("ok  " if ok else "FAIL", path, label, completed, failed,
                 requests, 100.0 * frac,
                 (", floor %.0f%%" % (100.0 * need)) if need else ""))

    def report_speedup(path, value, rule):
        need = float(rule["min_speedup"])
        checked[0] += 1
        ok = value is not None and float(value) >= need
        shown = float(value) if value is not None else 0.0
        print("%s %s: coalescing speedup = %.2fx (floor %.2fx)"
              % ("ok  " if ok else "FAIL", path, shown, need))
        if not ok:
            failures.append("%s: coalescing speedup %.2fx below floor %.2fx"
                            % (path, shown, need))

    def report_parallelism(path, value, rule):
        # Sanity anchor for the multicore leg: its floors prove nothing on
        # a 1-core runner, so this one asserts the runner's recorded
        # hardware_parallelism (no tolerance — it is a fact about the
        # machine, not a measurement).
        need = int(rule["min_hardware_parallelism"])
        got = int(value) if value is not None else 0
        checked[0] += 1
        ok = got >= need
        print("%s %s: hardware_parallelism = %d (floor %d)"
              % ("ok  " if ok else "FAIL", path, got, need))
        if not ok:
            failures.append(
                "%s: hardware_parallelism %d below floor %d (the multicore "
                "leg ran on too small a runner)" % (path, got, need))

    def report_class(path, row, cl, rule):
        # Per-class SLO floors over a classesN row's class_lat entries:
        # p95 latency CEILING and completed-fraction floor, both
        # no-tolerance (ordering inversions and starved classes are
        # correctness, not jitter).
        label = "%s class %s" % (row.get("path", "?"), cl.get("class", "?"))
        checked[0] += 1
        ok = True
        if "max_p95_us" in rule:
            p95 = float(cl.get("p95_us", 0.0))
            ceiling = float(rule["max_p95_us"])
            if p95 > ceiling:
                ok = False
                failures.append("%s: %s p95 %.1fus above ceiling %.1fus"
                                % (path, label, p95, ceiling))
        frac = float(cl.get("completed_fraction", 0.0))
        need = float(rule.get("min_completed_fraction", 0.0))
        if frac < need:
            ok = False
            failures.append(
                "%s: %s completed only %.0f%% of requests (floor %.0f%%)"
                % (path, label, 100.0 * frac, 100.0 * need))
        print("%s %s: %s p95 = %.1fus%s, completed %.0f%%%s"
              % ("ok  " if ok else "FAIL", path, label,
                 float(cl.get("p95_us", 0.0)),
                 (" (ceiling %.1fus)" % float(rule["max_p95_us"]))
                 if "max_p95_us" in rule else "",
                 100.0 * frac,
                 (", floor %.0f%%" % (100.0 * need)) if need else ""))

    def report_drift(path, row, rule):
        # Drift-pair floors (bench_drift rows): "max_final_maxabs" is a
        # CEILING on the pair's final-output max-abs divergence, with no
        # tolerance — the arithmetic is deterministic, so any change is a
        # real accuracy-drift change. The self pair (shadow == primary)
        # carries ceiling 0.0: the standing proof that the shadow path
        # replays the primary bitwise. Pairs must also have recorded
        # samples — an empty series passing a ceiling would be vacuous.
        label = "%s -> %s" % (row.get("primary", "?"), row.get("shadow", "?"))
        checked[0] += 1
        ok = True
        if int(row.get("samples", 0)) <= 0:
            ok = False
            failures.append("%s: %s recorded no drift samples"
                            % (path, label))
        if "max_final_maxabs" in rule:
            value = float(row.get("final_max_abs", 0.0))
            ceiling = float(rule["max_final_maxabs"])
            if value > ceiling:
                ok = False
                failures.append(
                    "%s: %s final max-abs drift %.6g above ceiling %.6g"
                    % (path, label, value, ceiling))
        print("%s %s: %s max_abs = %.6g%s, %d samples"
              % ("ok  " if ok else "FAIL", path, label,
                 float(row.get("final_max_abs", 0.0)),
                 (" (ceiling %.6g)" % float(rule["max_final_maxabs"]))
                 if "max_final_maxabs" in rule else "",
                 int(row.get("samples", 0))))

    def report_drift_file(path, pairs, rule):
        # File-level completeness floors of a drift sweep: at least
        # min_pair_rows scenario pairs, and (require_energy) every pair
        # joined against both projected-energy columns — the decision
        # bench's contract that no row silently lost its energy side.
        checked[0] += 1
        ok = True
        need = int(rule.get("min_pair_rows", 0))
        if len(pairs) < need:
            ok = False
            failures.append("%s: only %d drift pair rows (floor %d)"
                            % (path, len(pairs), need))
        if rule.get("require_energy"):
            for row in pairs:
                if float(row.get("primary_energy_uj", 0.0)) <= 0.0 or \
                        float(row.get("shadow_energy_uj", 0.0)) <= 0.0:
                    ok = False
                    failures.append(
                        "%s: pair %s -> %s is missing an energy column"
                        % (path, row.get("primary", "?"),
                           row.get("shadow", "?")))
        print("%s %s: %d drift pair rows%s%s"
              % ("ok  " if ok else "FAIL", path, len(pairs),
                 (" (floor %d)" % need) if need else "",
                 ", energy joined" if rule.get("require_energy") else ""))

    matched = set()
    for path in args.files:
        try:
            data = load(path)
        except (OSError, json.JSONDecodeError) as e:
            failures.append("%s: unreadable bench file (%s)" % (path, e))
            continue
        matched |= check_file(path, data, floors, tolerance, report,
                              report_speedup, report_resolved,
                              report_parallelism, report_class,
                              report_drift, report_drift_file)

    for i, rule in enumerate(floors):
        if i not in matched:
            print("skip (no matching row in given files): %s"
                  % json.dumps(rule))

    if checked[0] < args.min_rows:
        failures.append(
            "only %d row(s) matched any floor (--min-rows %d): the bench "
            "output format, row names, or floor selectors have drifted"
            % (checked[0], args.min_rows))

    print("checked %d rows against %d floors, %d failures"
          % (checked[0], len(floors), len(failures)))
    for f in failures:
        print("error: " + f, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
