#!/usr/bin/env bash
# Regenerates BENCH_current.json (schema mcn-bench-v3, DESIGN.md §5).
#
# Runs the tracked reference benchmarks at default scale — each binary
# writes its own JSON record, then the figure arrays are merged in run
# order. Usage, from the repo root (build/ configured for Release):
#
#   cmake --build build -j --target bench_fig08a_skyline_facilities \
#       bench_fig08b_skyline_costtypes bench_fig09a_skyline_distribution \
#       bench_fig09b_skyline_buffer bench_fig10a_topk_facilities \
#       bench_fig10b_topk_costtypes bench_fig11a_topk_distribution \
#       bench_fig11b_topk_buffer bench_fig12_topk_k bench_service_throughput \
#       bench_parallel_expansion bench_shard_scaling bench_wire_throughput \
#       bench_fault_recovery bench_prune_index
#   tools/regen_bench.sh [output=BENCH_current.json]
#
# Diff against the tracked baseline with:
#   tools/bench_diff.py BENCH_baseline.json BENCH_current.json
#
# Takes a few minutes at the default MCN_BENCH_SCALE=0.15.
set -euo pipefail

out="${1:-BENCH_current.json}"
build="${BUILD_DIR:-build}"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

benches=(
  bench_fig08a_skyline_facilities
  bench_fig08b_skyline_costtypes
  bench_fig09a_skyline_distribution
  bench_fig09b_skyline_buffer
  bench_fig10a_topk_facilities
  bench_fig10b_topk_costtypes
  bench_fig11a_topk_distribution
  bench_fig11b_topk_buffer
  bench_fig12_topk_k
  bench_service_throughput
  bench_parallel_expansion
  bench_shard_scaling
  bench_wire_throughput
  bench_fault_recovery
  bench_prune_index
)

# One entry per bench above: the figure-title substring the merged JSON
# must contain. Keeps a gate-aborted bench (set -e stops before the merge,
# or a stale output file survives) from silently shipping as "regenerated".
required_figs="Figure 8(a),Figure 8(b),Figure 9(a),Figure 9(b),Figure 10(a),Figure 10(b),Figure 11(a),Figure 11(b),Figure 12,Service throughput,Service result cache,Parallel d-expansion,Shard scaling,Wire throughput,Fault recovery,Prune index"

for bench in "${benches[@]}"; do
  echo "== $bench =="
  MCN_BENCH_JSON="$tmp/$bench.json" "$build/$bench"
done

python3 - "$out" "$tmp" "${benches[@]}" <<'EOF'
import json, sys
out, tmp, benches = sys.argv[1], sys.argv[2], sys.argv[3:]
merged = None
for bench in benches:
    with open(f"{tmp}/{bench}.json") as f:
        record = json.load(f)
    if merged is None:
        merged = record
    else:
        assert record["schema"] == merged["schema"], bench
        merged["figures"] += record["figures"]
with open(out, "w") as f:
    json.dump(merged, f, indent=1)
    f.write("\n")
print(f"wrote {out}: {len(merged['figures'])} figures")
EOF

# Fail loudly when any expected figure is missing from what we just wrote.
"$(dirname "$0")/bench_diff.py" "$out" "$out" --require-figs "$required_figs" \
  > /dev/null || {
    echo "regen_bench: FAILED figure completeness check for $out" >&2
    exit 1
  }
echo "figure completeness check passed ($out)"
