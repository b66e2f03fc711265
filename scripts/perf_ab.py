#!/usr/bin/env python3
"""A/B driver for the repository benchmark (BENCHMARK.json).

    python3 scripts/perf_ab.py PARENT CHANGE

Checks out both revisions as git worktrees under .bench_build/ab/ and
removes them when it exits. For every workload it runs each tree's own
benchmark command (`python3 perfbench/run.py --workload W --seed N
--seconds S --trace 0`, S = run_seconds) in pairs, seed N = the pair's
number, alternating which side runs first. It keeps running pairs until
ten pairs are clean (every run's host steal under 10% of its window's
jiffies), at most twenty; noisier pairs are listed apart and kept out of
the medians. Each run is stamped with its /proc/stat steal and idle
deltas and its RUSAGE_CHILDREN user and sys CPU.

One verdict per (workload, end-to-end metric), over the clean pairs:
  failed      a run exited non-zero or printed "correct": false, or the
              change failed a larger share of its operations
  worse       the change's median is worse than the parent's by more
              than the metric's bound
  gain        the change won at least 9 of 10 pairs (ties count for
              neither side) and the medians differ by more than the
              parent's IQR
  unresolved  either side's IQR is wider than the bound, or fewer than
              ten pairs were clean, unless every change run beats every
              parent run
  no change   otherwise
The last stdout line is JSON. The exit code is 1 when any verdict is
failed or worse, 2 on a usage or git error. Stdlib only.
"""
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
AB_DIR = os.path.join(ROOT, ".bench_build", "ab")
SIDES = ("parent", "change")
CLEAN_PAIRS = 10
MAX_PAIRS = 20
MAX_STEAL = 0.10


def proc_stat():
    """(steal, idle, total) jiffies summed over the host's CPUs."""
    with open("/proc/stat", encoding="ascii") as f:
        fields = [int(v) for v in f.readline().split()[1:9]]
    return fields[7], fields[3], sum(fields)


def run_once(tree, command, workload, seed, seconds):
    cmd = command + ["--workload", workload, "--seed", str(seed),
                     "--seconds", str(seconds), "--trace", "0"]
    stat0 = proc_stat()
    cpu0 = resource.getrusage(resource.RUSAGE_CHILDREN)
    proc = subprocess.run(cmd, cwd=tree, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    cpu1 = resource.getrusage(resource.RUSAGE_CHILDREN)
    steal, idle, jiffies = (b - a for a, b in zip(stat0, proc_stat()))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        result = {}
    return {
        "seed": seed, "rc": proc.returncode,
        "correct": result.get("correct") is True,
        "attempted": result.get("attempted", 0),
        "failed": result.get("failed", 0),
        "metrics": {k: v["value"]
                    for k, v in result.get("metrics", {}).items()},
        "steal": steal, "idle": idle, "jiffies": jiffies,
        "user_s": round(cpu1.ru_utime - cpu0.ru_utime, 2),
        "sys_s": round(cpu1.ru_stime - cpu0.ru_stime, 2),
    }


def steal_frac(run):
    return run["steal"] / run["jiffies"] if run["jiffies"] > 0 else 1.0


def is_clean(pair):
    return all(steal_frac(pair[s]) < MAX_STEAL for s in SIDES)


def failed_share(runs):
    attempted = sum(r["attempted"] for r in runs)
    return sum(r["failed"] for r in runs) / attempted if attempted else 1.0


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def relative(delta, base):
    return abs(delta / base) if base else float("inf") if delta else 0.0


def wins(parent, change, better):
    """Pairs the change reads better in; a tie counts for neither side."""
    sign = 1 if better == "higher" else -1
    return sum(sign * (c - p) > 0 for p, c in zip(parent, change))


def verdict(parent, change, better, bound):
    """The verdict for paired values of one metric over the clean pairs."""
    if not parent:
        return "unresolved"
    sign = 1 if better == "higher" else -1
    mp, mc = statistics.median(parent), statistics.median(change)
    gap = sign * (mc - mp)  # > 0: the change reads better
    if gap < 0 and relative(gap, mp) > bound:
        return "worse"
    q1p, q3p = quartiles(parent)
    q1c, q3c = quartiles(change)
    enough = len(parent) >= CLEAN_PAIRS
    if enough and wins(parent, change, better) >= 0.9 * len(parent) and \
            gap > q3p - q1p:
        return "gain"
    spread = max(relative(q3p - q1p, mp), relative(q3c - q1c, mc))
    every = min(sign * c for c in change) > max(sign * p for p in parent)
    if (spread > bound or not enough) and not every:
        return "unresolved"
    return "no change"


def summarize(pairs, end_to_end):
    """Per-metric rows of one workload from its pairs of run records."""
    clean = [p for p in pairs if is_clean(p)]
    runs = {s: [p[s] for p in pairs] for s in SIDES}
    failed = (any(r["rc"] != 0 or not r["correct"]
                  for s in SIDES for r in runs[s])
              or failed_share(runs["change"]) > failed_share(runs["parent"]))
    rows = []
    for m in end_to_end:
        vals = {s: [p[s]["metrics"].get(m["name"], 0.0) for p in clean]
                for s in SIDES}
        row = {"metric": m["name"], "unit": m["unit"], "bound": m["bound"],
               "won": wins(vals["parent"], vals["change"], m["better"]),
               "pairs": len(clean),
               "verdict": "failed" if failed else verdict(
                   vals["parent"], vals["change"], m["better"], m["bound"])}
        for s in SIDES:
            if vals[s]:
                q1, q3 = quartiles(vals[s])
                row[s] = {"median": statistics.median(vals[s]),
                          "q1": q1, "q3": q3}
        if vals["parent"] and row["parent"]["median"]:
            row["ratio"] = row["change"]["median"] / row["parent"]["median"]
        rows.append(row)
    return {"clean_seeds": [p["seed"] for p in clean],
            "noisy_seeds": [p["seed"] for p in pairs if not is_clean(p)],
            "rows": rows, "pairs": pairs}


def cell(stats):
    return "%.4g [%.4g-%.4g]" % (stats["median"], stats["q1"], stats["q3"]) \
        if stats else "-"


def print_report(report):
    print("| workload | metric | parent | change | ratio | won | verdict |")
    print("|----------|--------|--------|--------|-------|-----|---------|")
    for name, w in report.items():
        for r in w["rows"]:
            print("| %s | %s | %s | %s | %s | %d/%d | %s |" % (
                name, r["metric"], cell(r.get("parent")),
                cell(r.get("change")),
                "%.3f" % r["ratio"] if "ratio" in r else "-",
                r["won"], r["pairs"], r["verdict"]))
    print()
    print("| workload | seed | side | steal | idle | jiffies | user s | sys s "
          "| samples_per_s | clean |")
    print("|----------|------|------|-------|------|---------|--------|-------"
          "|---------------|-------|")
    for name, w in report.items():
        for p in w["pairs"]:
            for s in SIDES:
                r = p[s]
                print("| %s | %d | %s | %d | %d | %d | %.1f | %.1f | %.4g | %s |"
                      % (name, p["seed"], s, r["steal"], r["idle"],
                         r["jiffies"], r["user_s"], r["sys_s"],
                         r["metrics"].get("samples_per_s", 0.0),
                         "yes" if is_clean(p) else "no"))


def run_pairs(trees, command, workload, seconds):
    pairs = []
    while len(pairs) < MAX_PAIRS and \
            sum(map(is_clean, pairs)) < CLEAN_PAIRS:
        seed = len(pairs) + 1
        order = SIDES if seed % 2 else SIDES[::-1]
        pair = {"seed": seed}
        for s in order:
            pair[s] = run_once(trees[s], command, workload, seed, seconds)
        pairs.append(pair)
        print("%s pair %d: %s" % (workload, seed, ", ".join(
            "%s rc %d steal %d/%d jiffies" % (
                s, pair[s]["rc"], pair[s]["steal"], pair[s]["jiffies"])
            for s in order)), flush=True)
    return pairs


def git(*args):
    return subprocess.run(["git", "-C", ROOT] + list(args), check=True,
                          stdout=subprocess.PIPE, text=True).stdout.strip()


def remove_tree(tree):
    if os.path.isdir(tree):
        subprocess.run(["git", "-C", ROOT, "worktree", "remove", "--force",
                        tree], stderr=subprocess.DEVNULL)
        shutil.rmtree(tree, ignore_errors=True)
    subprocess.run(["git", "-C", ROOT, "worktree", "prune"])


def main(argv):
    if len(argv) != 3:
        sys.stderr.write("usage: perf_ab.py PARENT CHANGE\n")
        return 2
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    trees = {s: os.path.join(AB_DIR, s) for s in SIDES}
    try:
        revs = {s: git("rev-parse", "--verify", rev + "^{commit}")
                for s, rev in zip(SIDES, argv[1:])}
        for s in SIDES:
            remove_tree(trees[s])
            git("worktree", "add", "--detach", trees[s], revs[s])
        with open(os.path.join(trees["change"], "BENCHMARK.json"),
                  encoding="utf-8") as f:
            bench = json.load(f)
        first = bench["workloads"][0]["name"]
        for s in SIDES:  # builds each tree outside the measured runs
            run_once(trees[s], bench["command"], first, 0, 1)
        report = {w["name"]: summarize(
            run_pairs(trees, bench["command"], w["name"],
                      bench["run_seconds"]), bench["end_to_end"])
            for w in bench["workloads"]}
    except subprocess.CalledProcessError as e:
        sys.stderr.write("perf_ab: %s failed\n" % " ".join(e.cmd))
        return 2
    finally:
        for tree in trees.values():
            remove_tree(tree)
    print_report(report)
    verdicts = [r["verdict"] for w in report.values() for r in w["rows"]]
    print(json.dumps({"parent": revs["parent"], "change": revs["change"],
                      "run_seconds": bench["run_seconds"],
                      "workloads": report}))
    return 1 if {"failed", "worse"} & set(verdicts) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
