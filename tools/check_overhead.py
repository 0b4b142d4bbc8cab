#!/usr/bin/env python3
"""Gate the observability layer's overhead on the throughput benches.

Compares QPS between two MCN_BENCH_JSON records — a baseline build (e.g.
-DMCN_OBS=0, tracing compiled out) and the default build (metrics on,
tracing off) — and fails when the default build's QPS falls more than
--max-loss-pct below the baseline's on any compared row (ISSUE: ≤ 2%).

Each record may hold several repetitions of the same figure (append runs
to one file, or pass multiple files per side): for every (figure, row,
algo) the MEDIAN qps across repetitions is compared. Best-of-N (the old
policy) is one-sided — a single lucky baseline run inflates the bar while
a single lucky current run hides a real regression — and made this gate
flaky on noisy shared runners. The median is robust to a stray outlier
on either side, and the per-run spread is printed for every over-budget
row so a flaky verdict is diagnosable from the log alone. At least
--min-reps repetitions per side (default 3) are required for the median
to mean anything; fewer is a usage error.

Usage:
    tools/check_overhead.py --baseline FILE [FILE...] --current FILE \
        [FILE...] [--max-loss-pct 2.0] [--min-reps 3] \
        [--figures SUBSTR[,SUBSTR...]]

Rows with qps == 0 (non-throughput figures) are skipped.
Exit codes: 0 within budget, 1 over budget, 2 usage/schema error.
"""

import argparse
import json
import statistics
import sys


def die(msg):
    """Usage/schema error: exit 2 (1 is reserved for an over-budget gate)."""
    print(msg, file=sys.stderr)
    sys.exit(2)


# Row "obs" counters surfaced when a row is over budget: the cache / batched
# I/O activity (DESIGN.md §13) that most plausibly explains a throughput
# shift that is NOT observability overhead.
DIAG_COUNTERS = (
    "mcn.service.cache_hit",
    "mcn.service.cache_miss",
    "mcn.service.cache_coalesced",
    "mcn.io.batch_reads",
    "mcn.io.batch_pages",
)


def load_rows(paths, figure_filters):
    """Returns (runs, diag): (figure, param, algo) -> list of qps across
    all files/repetitions, and the same key -> {counter: value} for the
    DIAG_COUNTERS seen in the row's "obs" object (last repetition wins)."""
    runs = {}
    diag = {}
    for path in paths:
        try:
            with open(path) as f:
                record = json.load(f)
        except (OSError, json.JSONDecodeError) as e:
            die(f"error: cannot read {path}: {e}")
        if not str(record.get("schema", "")).startswith("mcn-bench-"):
            die(f"error: {path}: not an mcn bench record")
        for fig in record.get("figures", []):
            title = fig.get("figure", "")
            if figure_filters and not any(s in title
                                          for s in figure_filters):
                continue
            for row in fig.get("rows", []):
                obs = row.get("obs", {})
                for algo in ("lsa", "cea"):
                    qps = row.get(algo, {}).get("qps", 0.0)
                    if qps <= 0:
                        continue  # non-throughput row
                    key = (title, row.get("param", ""), algo)
                    runs.setdefault(key, []).append(qps)
                    found = {name: obs[name] for name in DIAG_COUNTERS
                             if name in obs}
                    if found:
                        diag[key] = found
    return runs, diag


def spread(values):
    """Human-readable per-run spread: 'min..max (n=N)'."""
    return f"{min(values):.2f}..{max(values):.2f} (n={len(values)})"


def main():
    parser = argparse.ArgumentParser(
        description="Observability overhead gate on bench QPS.")
    parser.add_argument("--baseline", nargs="+", required=True,
                        help="bench JSON(s) from the MCN_OBS=0 build")
    parser.add_argument("--current", nargs="+", required=True,
                        help="bench JSON(s) from the default build")
    parser.add_argument("--max-loss-pct", type=float, default=2.0)
    parser.add_argument("--min-reps", type=int, default=3,
                        help="minimum repetitions per compared row on each "
                             "side (default: 3)")
    parser.add_argument("--figures", default="throughput",
                        help="comma-separated figure-title substrings to "
                             "compare (default: 'throughput')")
    args = parser.parse_args()
    if args.min_reps < 1:
        die("error: --min-reps must be >= 1")

    filters = [s.strip() for s in args.figures.split(",") if s.strip()]
    base, base_diag = load_rows(args.baseline, filters)
    curr, curr_diag = load_rows(args.current, filters)

    common = sorted(k for k in base if k in curr)
    if not common:
        die("error: no comparable qps rows between the two sides "
            f"(figure filter: {filters})")
    for key in common:
        for side, rows in (("baseline", base), ("current", curr)):
            if len(rows[key]) < args.min_reps:
                die(f"error: {key[0]} / {key[1]} / {key[2]}: only "
                    f"{len(rows[key])} {side} repetition(s); the "
                    f"median needs at least {args.min_reps} "
                    "(pass more run files or lower --min-reps)")

    failures = 0
    print(f"{'figure / row / algo':<64} {'base qps':>10} {'curr qps':>10} "
          f"{'delta':>8}")
    for key in common:
        b = statistics.median(base[key])
        c = statistics.median(curr[key])
        loss_pct = 100.0 * (b - c) / b
        label = f"{key[0][:40]} / {key[1]} / {key[2]}"
        over = loss_pct > args.max_loss_pct
        if over:
            failures += 1
        print(f"{label:<64} {b:>10.2f} {c:>10.2f} {-loss_pct:>+7.1f}%"
              f"{'  <-- over budget' if over else ''}")
        if over:
            # The spread tells flaky from real: medians near each other's
            # ranges mean runner noise; disjoint ranges mean a regression.
            print(f"    baseline runs: {spread(base[key])}  "
                  f"current runs: {spread(curr[key])}")
            # Cache / batched-I/O counters: a hit-rate or batch-width skew
            # between the sides means the workloads differed — not obs
            # overhead (DESIGN.md §13).
            for side, d in (("baseline", base_diag), ("current", curr_diag)):
                if key in d:
                    pretty = " ".join(f"{name}={value:g}"
                                      for name, value in sorted(
                                          d[key].items()))
                    print(f"    {side} cache/io: {pretty}")

    if failures:
        print(f"FAILURE: {failures} row(s) lose more than "
              f"{args.max_loss_pct:g}% median QPS with observability on.")
        return 1
    print(f"all {len(common)} rows within the {args.max_loss_pct:g}% "
          f"overhead budget (median of >= {args.min_reps} runs per side).")
    return 0


if __name__ == "__main__":
    sys.exit(main())
