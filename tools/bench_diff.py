#!/usr/bin/env python3
"""Diff two MCN_BENCH_JSON files (schema mcn-bench-v3, DESIGN.md §5).

Usage:
    tools/bench_diff.py BENCH_baseline.json BENCH_current.json \
        [--tolerance PCT] [--require-figs SUBSTR[,SUBSTR...]]

Compares the two records figure by figure (matched by figure title) and row
by row (matched by the `param` value):

  * result hashes must be byte-identical for every (figure, row, algo)
    present in both files — a mismatch means a refactor changed query
    *results*, and the script exits non-zero;
  * modeled time and buffer-miss deltas are printed per row, with rows
    whose |time delta| exceeds --tolerance (default 10%) flagged;
  * figures or rows present in only one file are listed as added/removed
    (informational, not an error);
  * observability-only row keys (the v3 "obs" object of registry metrics)
    are ignored entirely — only the lsa/cea measurement objects are
    compared, so obs counters may drift freely while a result-hash
    mismatch still hard-fails;
  * rows may carry an "io_backend" tag (DESIGN.md §5). When BOTH sides of
    a matched row carry it and the values differ, the comparison is
    refused (exit 2): wall time on memory vs a file backend are different
    quantities, not regressions. A tag missing on either side compares
    normally (older baselines carry no tag);
  * --require-figs makes a regen run fail LOUDLY when expected figures are
    missing from the *current* file: each comma-separated entry must be a
    substring of at least one current figure title. A bench binary that
    aborts before its PrintFooter (a failed timing gate under `set -e`)
    silently drops its figure from the merged JSON — this flag turns that
    silence into a non-zero exit.

Exit codes: 0 clean, 1 result-hash mismatch or missing required figure,
2 usage/schema error or refused cross-backend comparison.
"""

import argparse
import json
import sys

ALGOS = ("lsa", "cea")


def load(path):
    try:
        with open(path) as f:
            record = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        sys.exit(f"error: cannot read {path}: {e}")
    if not str(record.get("schema", "")).startswith("mcn-bench-"):
        sys.exit(f"error: {path}: not an mcn bench record "
                 f"(schema={record.get('schema')!r})")
    return record


def by_figure(record):
    figures = {}
    for fig in record.get("figures", []):
        figures[fig["figure"]] = {
            "varying": fig.get("varying", ""),
            "rows": {row["param"]: row for row in fig.get("rows", [])},
        }
    return figures


def fmt_delta(old, new):
    if old == 0:
        return "   n/a " if new == 0 else "   new "
    pct = 100.0 * (new - old) / old
    return f"{pct:+6.1f}%"


def main():
    parser = argparse.ArgumentParser(
        description="Diff two mcn-bench JSON records.")
    parser.add_argument("baseline")
    parser.add_argument("current")
    parser.add_argument("--tolerance", type=float, default=10.0,
                        help="flag rows whose |modeled-time delta| exceeds "
                             "this percentage (default 10)")
    parser.add_argument("--require-figs", default="",
                        help="comma-separated substrings; each must match a "
                             "figure title in CURRENT, else exit non-zero")
    args = parser.parse_args()

    base = by_figure(load(args.baseline))
    curr = by_figure(load(args.current))

    missing_figs = []
    for needle in filter(None, (s.strip()
                                for s in args.require_figs.split(","))):
        if not any(needle in title for title in curr):
            missing_figs.append(needle)

    hash_mismatches = 0
    flagged = 0

    for title in sorted(set(base) - set(curr)):
        print(f"-- removed figure: {title}")
    for title in sorted(set(curr) - set(base)):
        print(f"++ added figure:   {title}")

    for title in sorted(set(base) & set(curr)):
        b_rows, c_rows = base[title]["rows"], curr[title]["rows"]
        varying = curr[title]["varying"] or base[title]["varying"]
        print(f"== {title}")
        header = (f"   {varying:<12} | algo | time Δ    | misses Δ  | hash")
        print(header)
        for param in sorted(set(b_rows) - set(c_rows)):
            print(f"   {param:<12} | removed row")
        for param in sorted(set(c_rows) - set(b_rows)):
            print(f"   {param:<12} | added row")
        for param in [p for p in b_rows if p in c_rows]:
            # Refuse cross-backend comparisons (see module docstring):
            # both sides tagged + different tag = exit 2.
            b_tag = b_rows[param].get("io_backend")
            c_tag = c_rows[param].get("io_backend")
            if b_tag and c_tag and b_tag != c_tag:
                print(f"error: {title!r} row {param!r}: refusing to "
                      f"compare io_backend {b_tag!r} (baseline) against "
                      f"{c_tag!r} (current) — rerun both records "
                      f"under the same configuration", file=sys.stderr)
                sys.exit(2)
            for algo in ALGOS:
                b, c = b_rows[param].get(algo), c_rows[param].get(algo)
                if b is None or c is None:
                    continue
                hash_ok = b.get("result_hash") == c.get("result_hash")
                if not hash_ok:
                    hash_mismatches += 1
                time_delta = fmt_delta(b.get("avg_modeled_s", 0.0),
                                       c.get("avg_modeled_s", 0.0))
                miss_delta = fmt_delta(float(b.get("buffer_misses", 0)),
                                       float(c.get("buffer_misses", 0)))
                over = (abs(c.get("avg_modeled_s", 0.0) -
                            b.get("avg_modeled_s", 0.0)) >
                        args.tolerance / 100.0 *
                        max(b.get("avg_modeled_s", 0.0), 1e-12))
                if over:
                    flagged += 1
                marker = "  <-- " + (
                    "HASH MISMATCH" if not hash_ok else
                    f"exceeds {args.tolerance:g}%") if (not hash_ok or over) \
                    else ""
                print(f"   {param:<12} | {algo:<4} | {time_delta:>8} | "
                      f"{miss_delta:>8}  | "
                      f"{'ok' if hash_ok else 'MISMATCH'}{marker}")

    print()
    if missing_figs:
        for needle in missing_figs:
            print(f"FAILURE: required figure missing from {args.current}: "
                  f"no title contains {needle!r}")
        print("(a bench likely aborted before writing its figure — check "
              "the regen log above the merge)")
        return 1
    if hash_mismatches:
        print(f"FAILURE: {hash_mismatches} result-hash mismatch(es) — "
              f"query results changed.")
        return 1
    extra = (f"; {flagged} row(s) over the {args.tolerance:g}% time tolerance"
             if flagged else "")
    print(f"result hashes identical for every common row{extra}.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
