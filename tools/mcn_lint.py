#!/usr/bin/env python3
"""Project lint gate: regex rules over the mcn tree.

Rules (each can be suppressed, see below):

  bare-sync-primitive
      std::mutex / std::lock_guard / std::unique_lock / std::scoped_lock /
      std::condition_variable (and friends) anywhere under src/mcn/ outside
      the annotated wrappers in common/mutex.h. Every lock must go through
      mcn::Mutex so Clang Thread Safety Analysis sees it.

  check-in-decode
      MCN_CHECK / MCN_DCHECK inside the wire / disk-image / record decode
      files.
      Decoders parse untrusted bytes and must reject malformed input with a
      Status, never a process abort. (Encode-side programmer-error CHECKs
      in the same files carry suppressions with justifications.)

  relaxed-disk-counters
      A fetch_add / fetch_sub in storage/disk_manager.* without an explicit
      std::memory_order_relaxed. The DiskManager counters are statistics,
      not synchronization; a seq_cst RMW on the page-read hot path is a
      silent perf regression (DESIGN.md §3).

  reinterpret-load-in-format
      reinterpret_cast<T*> of an integer/float type in the on-disk /
      on-wire format files. Casting misaligned buffer bytes to wider types
      is UB; format code loads through std::memcpy. (char* casts for
      iostream I/O are fine and not matched.)

  engine-calls-via-turns
      engine_->NextNN( or engine_->Step( in the three query processors
      (algo/skyline_query.cc, algo/topk_query.cc, algo/incremental_topk.cc).
      They advance their expansions only through ParallelProbeScheduler
      turns (algo/turn_dispatch.h, DESIGN.md §7), so every schedule gets
      the turn's cancellation point, trace span and turn-level I/O. The
      naive oracle (algo/naive.cc) may still call the engine directly.

  metric-names-in-one-place
      A "mcn. string literal anywhere under src/mcn/ outside
      exec/query_service.h, which defines exec::metric_names. Every
      instrument name the service registers or appends to its snapshot is
      a metric_names constant or helper, so the names callers read
      (benches, perfbench, kGetMetrics scrapers) are all listed there.

Suppression syntax (a justifying comment is required by review convention):

  // mcn-lint: disable=<rule>            suppress on this line
  // mcn-lint: disable-next-line=<rule>  suppress on the following line
  // mcn-lint: disable-file=<rule>       suppress in the whole file

Exit status: 0 = clean, 1 = findings (printed one per line as
path:line: [rule] message), 2 = usage error.

  tools/mcn_lint.py [--root DIR]      lint the tree
  tools/mcn_lint.py --self-test       verify every rule fires on a seeded
                                      bad example (used by ctest)
"""

from __future__ import annotations

import argparse
import pathlib
import re
import sys
import tempfile

# (rule, file matcher, line regex, message). File matchers are match()ed
# against the path relative to the repo root, with / separators.
RULES = [
    (
        "bare-sync-primitive",
        re.compile(r"src/mcn/.*\.(h|cc)$"),
        re.compile(
            r"std::(mutex|timed_mutex|recursive_mutex|shared_mutex|"
            r"lock_guard|unique_lock|scoped_lock|"
            r"condition_variable(_any)?)\b"
        ),
        "bare std sync primitive; use mcn::Mutex/MutexLock/CondVar "
        "(common/mutex.h) so thread-safety analysis sees the lock",
    ),
    (
        "check-in-decode",
        re.compile(r"src/mcn/(api/wire|storage/persistence|net/format)\.cc$"),
        re.compile(r"\bMCN_D?CHECK\b"),
        "CHECK in a decode path; untrusted input must come back as a "
        "Status, not a process abort",
    ),
    (
        "relaxed-disk-counters",
        re.compile(r"src/mcn/storage/disk_manager\.(h|cc)$"),
        re.compile(r"\bfetch_(add|sub)\((?!.*memory_order_relaxed)"),
        "DiskManager counter RMW without memory_order_relaxed; counters "
        "are statistics, keep them off the synchronization path",
    ),
    (
        "reinterpret-load-in-format",
        re.compile(
            r"src/mcn/(api/wire|storage/(persistence|slotted_page)|"
            r"net/landmark_index|shard/sharded_builder)\.(h|cc)$"
        ),
        re.compile(
            r"reinterpret_cast<\s*(const\s+)?"
            r"(u?int(8|16|32|64)_t|float|double|size_t)\s*\*\s*>"
        ),
        "typed reinterpret load in format code; load through std::memcpy "
        "(alignment + aliasing)",
    ),
    (
        "engine-calls-via-turns",
        re.compile(
            r"src/mcn/algo/(skyline_query|topk_query|incremental_topk)\.cc$"
        ),
        re.compile(r"\bengine_->(NextNN|Step)\("),
        "query processor drives the engine directly; advance expansions "
        "through TurnDispatcher / ParallelProbeScheduler turns",
    ),
    (
        "metric-names-in-one-place",
        re.compile(r"src/mcn/(?!exec/query_service\.h$).*\.(h|cc)$"),
        re.compile(r'"mcn\.'),
        "metric name literal outside exec::metric_names; add a constant or "
        "helper there (exec/query_service.h)",
    ),
]

SUPPRESS_RE = re.compile(
    r"mcn-lint:\s*(disable|disable-next-line|disable-file)=([\w,-]+)"
)


def parse_suppressions(lines):
    """Returns (file_wide: set, per_line: dict line_no -> set)."""
    file_wide: set[str] = set()
    per_line: dict[int, set[str]] = {}
    for i, line in enumerate(lines, start=1):
        for kind, rules in SUPPRESS_RE.findall(line):
            names = set(rules.split(","))
            if kind == "disable-file":
                file_wide |= names
            elif kind == "disable-next-line":
                per_line.setdefault(i + 1, set()).update(names)
            else:  # disable
                per_line.setdefault(i, set()).update(names)
    return file_wide, per_line


def lint_file(root: pathlib.Path, path: pathlib.Path):
    rel = path.relative_to(root).as_posix()
    active = [r for r in RULES if r[1].match(rel)]
    if not active:
        return []
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except (OSError, UnicodeDecodeError) as err:
        return [(rel, 0, "io", f"unreadable source file: {err}")]
    file_wide, per_line = parse_suppressions(lines)
    findings = []
    for rule, _, pattern, message in active:
        if rule in file_wide:
            continue
        for i, line in enumerate(lines, start=1):
            if not pattern.search(line):
                continue
            if rule in per_line.get(i, ()):
                continue
            findings.append((rel, i, rule, message))
    return findings


def lint_tree(root: pathlib.Path):
    findings = []
    for path in sorted((root / "src" / "mcn").rglob("*")):
        if path.suffix in (".h", ".cc") and path.is_file():
            findings.extend(lint_file(root, path))
    return findings


BAD_EXAMPLES = {
    # One seeded violation per rule; the self-test asserts each fires and
    # that every suppression spelling silences it.
    "bare-sync-primitive": (
        "src/mcn/exec/bad.h",
        "std::mutex mu_;\n",
    ),
    "check-in-decode": (
        "src/mcn/api/wire.cc",
        "MCN_CHECK(payload.size() > 0);\n",
    ),
    "relaxed-disk-counters": (
        "src/mcn/storage/disk_manager.cc",
        "page_reads_.fetch_add(1);\n",
    ),
    "reinterpret-load-in-format": (
        "src/mcn/storage/persistence.cc",
        "const uint32_t* v = reinterpret_cast<const uint32_t*>(p);\n",
    ),
    "engine-calls-via-turns": (
        "src/mcn/algo/topk_query.cc",
        "MCN_ASSIGN_OR_RETURN(auto nn, engine_->NextNN(i));\n",
    ),
    "metric-names-in-one-place": (
        "src/mcn/exec/query_service.cc",
        'snap.AddCounter("mcn.disk.file." + name + ".reads", reads);\n',
    ),
}

# Files a rule deliberately exempts; the self-test asserts each stays
# silent on a line the rule would flag anywhere else.
EXEMPT_EXAMPLES = {
    "metric-names-in-one-place": (
        "src/mcn/exec/query_service.h",
        'inline constexpr char kCompleted[] = "mcn.service.completed";\n',
    ),
}


def rule_hits(rule: str, rel: str, text: str):
    """Findings of `rule` in a scratch tree holding only `rel` = `text`."""
    with tempfile.TemporaryDirectory() as tmp:
        root = pathlib.Path(tmp)
        target = root / rel
        target.parent.mkdir(parents=True)
        target.write_text(text, encoding="utf-8")
        return [f for f in lint_tree(root) if f[2] == rule]


def self_test() -> int:
    failures = 0
    for rule, (rel, text) in EXEMPT_EXAMPLES.items():
        hits = rule_hits(rule, rel, text)
        if hits:
            failures += 1
            print(
                f"self-test FAILED: rule {rule} fires in exempt {rel}: {hits}",
                file=sys.stderr,
            )
    for rule, (rel, bad_line) in BAD_EXAMPLES.items():
        for variant, text in {
            "fires": bad_line,
            "line": bad_line.rstrip() + f"  // mcn-lint: disable={rule}\n",
            "next-line": f"// mcn-lint: disable-next-line={rule}\n"
            + bad_line,
            "file": f"// mcn-lint: disable-file={rule}\n" + bad_line,
        }.items():
            hits = rule_hits(rule, rel, text)
            expect_hit = variant == "fires"
            if bool(hits) != expect_hit:
                failures += 1
                print(
                    f"self-test FAILED: rule {rule}, variant {variant}: "
                    f"expected {'a finding' if expect_hit else 'silence'},"
                    f" got {hits}",
                    file=sys.stderr,
                )
    if failures == 0:
        print(
            f"self-test OK: {len(BAD_EXAMPLES)} rules x 4 variants, "
            f"{len(EXEMPT_EXAMPLES)} exemption(s)"
        )
        return 0
    return 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--root",
        type=pathlib.Path,
        default=pathlib.Path(__file__).resolve().parent.parent,
        help="repository root (default: the tree containing this script)",
    )
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if not (args.root / "src" / "mcn").is_dir():
        print(f"no src/mcn under {args.root}", file=sys.stderr)
        return 2
    findings = lint_tree(args.root)
    for rel, line, rule, message in findings:
        print(f"{rel}:{line}: [{rule}] {message}")
    if findings:
        print(f"{len(findings)} lint finding(s)", file=sys.stderr)
        return 1
    print("mcn_lint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
