#!/usr/bin/env python3
"""Paired wall-clock comparison of two checkouts on one perfbench workload.

Usage:
    tools/perf_pairs.py PARENT_DIR CHANGE_DIR --workload W --pairs N \
        --seconds S --seed0 K [--trace 0|1]
    tools/perf_pairs.py --self-test

Runs `python3 perfbench/run.py` in the two checkouts alternately, N pairs
in all: pair i uses seed K + i on both sides, and the parent runs first on
even pairs, the change first on odd ones, so slow drift of the host hits
both sides alike. Each checkout builds its own benchmark binary on its
first run (perfbench/run.py; the build is not timed). A run whose result
is not `correct` or has `failed` > 0 is rejected: the tool stops and exits
1.

With --trace 0 (the default) it prints, for every end-to-end metric of
BENCHMARK.json, each side's median and quartiles, the change's wins (pairs
where it is strictly better), whether the gain rule holds (wins in at
least 9 of 10 pairs and a median better than the parent's by more than the
parent's interquartile range) and the no-regression verdict:

    holds        the change's median is no worse than the parent's by more
                 than the metric's `bound` (a fraction of the parent's
                 median);
    REGRESSION   it is worse by more than the bound (the relative change
                 is printed);
    unresolved   either side's interquartile range, relative to the
                 parent's median, exceeds the bound, so the runs cannot
                 tell; unless every change run beats every parent run,
                 which holds.

A traced run (--trace 1) reports the per-layer metrics instead, and the
tool prints their medians and quartiles only.

--self-test checks the gain rule and the verdicts on synthetic samples.

Exit codes: 0 done (whatever the verdicts) or self-test passed, 1 a run
failed or was rejected or the self-test failed, 2 usage error.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

# Used when CHANGE_DIR has no BENCHMARK.json.
DEFAULT_END_TO_END = [
    {"name": "latency_p50_ms", "better": "lower", "bound": 0.25},
    {"name": "latency_p95_ms", "better": "lower", "bound": 0.25},
    {"name": "throughput_qps", "better": "higher", "bound": 0.25},
    {"name": "setup_s", "better": "lower", "bound": 0.25},
]


def load_metrics(change_dir):
    """(end_to_end, per_layer) metric lists, from BENCHMARK.json if any."""
    path = os.path.join(change_dir, "BENCHMARK.json")
    if not os.path.exists(path):
        return DEFAULT_END_TO_END, []
    with open(path) as f:
        bench = json.load(f)
    return bench.get("end_to_end", []), bench.get("per_layer", [])


def run_once(checkout, workload, seed, seconds, trace):
    """One perfbench run in `checkout`; returns its result object."""
    command = [sys.executable, os.path.join("perfbench", "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", trace]
    run = subprocess.run(command, cwd=checkout, stdout=subprocess.PIPE,
                         text=True)
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or not lines:
        sys.exit("perf_pairs: run failed in %s (seed %d, exit %d)" %
                 (checkout, seed, run.returncode))
    result = json.loads(lines[-1])
    if result.get("correct") is not True or result.get("failed", 1) > 0:
        sys.exit("perf_pairs: rejected run in %s (seed %d): %s" %
                 (checkout, seed, lines[-1]))
    return result


def quartiles(values):
    """(q1, median, q3); a single value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def better(a, b, direction):
    return a < b if direction == "lower" else a > b


def gain(parent, change, direction):
    """(wins, holds): the change's strict wins over the pairs, and whether
    the gain rule holds (at least 9 of 10 wins and a median gap above the
    parent's interquartile range)."""
    p1, pm, p3 = quartiles(parent)
    _, cm, _ = quartiles(change)
    wins = sum(better(c, p, direction) for p, c in zip(parent, change))
    gap = cm - pm if direction == "higher" else pm - cm
    return wins, wins * 10 >= 9 * len(parent) and gap > p3 - p1


def no_regression(parent, change, direction, bound):
    """(verdict, relative change of the median): "holds", "REGRESSION" or
    "unresolved", as the module docstring defines them."""
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    scale = abs(pm) or 1.0
    relative = (cm - pm) / scale
    if all(better(c, p, direction) for c in change for p in parent):
        return "holds", relative
    if max(p3 - p1, c3 - c1) / scale > bound:
        return "unresolved", relative
    worse_by = relative if direction == "lower" else -relative
    return ("REGRESSION" if worse_by > bound else "holds"), relative


def report(metric, parent, change, end_to_end):
    """Prints one metric's line, with wins, the gain rule and the
    no-regression verdict when `end_to_end`."""
    name, direction = metric["name"], metric.get("better", "lower")
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    line = ("%-18s parent %12.6g [%.6g, %.6g]   change %12.6g [%.6g, %.6g]" %
            (name, pm, p1, p3, cm, c1, c3))
    if not end_to_end:
        print(line)
        return
    wins, holds = gain(parent, change, direction)
    verdict, relative = no_regression(parent, change, direction,
                                      metric.get("bound", 0.25))
    print("%s   wins %d/%d   gain rule %s   no regression: %s (%+.1f%%)" %
          (line, wins, len(parent), "holds" if holds else "does not hold",
           verdict, 100 * relative))


def self_test():
    """Checks gain() and no_regression() on synthetic ten-pair samples."""
    base = [100, 98, 102, 99, 101, 100, 97, 103, 100, 100]
    wide = [60, 140, 80, 120, 100, 70, 130, 90, 110, 100]
    cases = [
        # (name, parent, change, better, expected verdict, gain holds)
        ("holds", base, [v * 1.05 for v in base], "lower", "holds", False),
        ("regression", base, [v * 1.5 for v in base], "lower",
         "REGRESSION", False),
        ("regression, higher is better", base, [v * 0.6 for v in base],
         "higher", "REGRESSION", False),
        ("unresolved", wide, [v * 1.1 for v in wide], "lower", "unresolved",
         False),
        ("all better beats unresolved", wide, [v * 0.2 for v in wide],
         "lower", "holds", True),
        ("gain", base, [v * 1.5 for v in base], "higher", "holds", True),
        ("gain within the parent's spread", wide, [v + 5 for v in wide],
         "higher", "unresolved", False),
    ]
    failures = 0
    for name, parent, change, direction, want_verdict, want_gain in cases:
        verdict, _ = no_regression(parent, change, direction, 0.25)
        _, holds = gain(parent, change, direction)
        if verdict != want_verdict or holds != want_gain:
            failures += 1
            print("self-test FAILED: %s: verdict %s, gain %s (want %s, %s)" %
                  (name, verdict, holds, want_verdict, want_gain))
    if failures:
        return 1
    print("self-test OK: %d cases" % len(cases))
    return 0


def main():
    if sys.argv[1:] == ["--self-test"]:
        return self_test()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_dir")
    parser.add_argument("change_dir")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--seed0", required=True, type=int)
    parser.add_argument("--trace", default="0", choices=["0", "1"])
    args = parser.parse_args()
    if args.pairs <= 0 or args.seconds <= 0 or args.seed0 < 0:
        parser.error("--pairs and --seconds must be positive, --seed0 "
                     "non-negative")
    for path in (args.parent_dir, args.change_dir):
        if not os.path.exists(os.path.join(path, "perfbench", "run.py")):
            parser.error("%s has no perfbench/run.py" % path)

    end_to_end, per_layer = load_metrics(args.change_dir)
    traced = args.trace == "1"
    metrics = per_layer if traced else end_to_end
    sides = {"parent": args.parent_dir, "change": args.change_dir}
    values = {side: {m["name"]: [] for m in metrics} for side in sides}
    for i in range(args.pairs):
        seed = args.seed0 + i
        order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        for side in order:
            result = run_once(sides[side], args.workload, seed, args.seconds,
                              args.trace)
            got = result["metrics"]
            for m in metrics:
                values[side][m["name"]].append(got[m["name"]]["value"])
            print("pair %d seed %d %s: %s" % (
                i, seed, side,
                ", ".join("%s=%.6g" % (m["name"], got[m["name"]]["value"])
                          for m in metrics)), flush=True)

    print("\n%s, %d pairs of %d s from seed %d (median [q1, q3]):" %
          (args.workload, args.pairs, args.seconds, args.seed0))
    for m in metrics:
        report(m, values["parent"][m["name"]], values["change"][m["name"]],
               not traced)
    return 0


if __name__ == "__main__":
    sys.exit(main())
