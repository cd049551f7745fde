#!/usr/bin/env bash
# Design-intent check for perf PRs (~1 min after the benchmark is built).
#
# The repository benchmark (`benchmark/`, BENCHMARK.json) vouches for its
# own traced runs: with `--trace 1` a run is reported `"correct": false`
# when the per-layer times do not add up to the driver's time
# (conservation) or when the workload has left its *design intent* — the
# share of the query the workload was built to stress. A perf PR can cause
# exactly that by optimising a workload out of its intent (shrink the
# communication layers enough and `gather_wan` is no longer a
# communication workload), and nothing in the tier-1 tests notices.
#
# This script runs the four workloads traced through the BENCHMARK.json
# command, fails unless every result line says `"correct": true`, and
# prints the asserted quantities next to their ranges so the remaining
# margin is visible *before* it is gone.
#
# Usage: scripts/bench_intent.sh [seed, default 1]
set -uo pipefail
cd "$(dirname "$0")/.."

SEED="${1:-1}"
mapfile -t CMD < <(jq -r '.command[]' BENCHMARK.json)
mapfile -t WORKLOADS < <(jq -r '.workloads[].name' BENCHMARK.json)

fail=0
for w in "${WORKLOADS[@]}"; do
    line="$("${CMD[@]}" --workload "$w" --seed "$SEED" --seconds 8 --trace 1 | tail -n 1)"
    if ! jq -e '.correct == true' >/dev/null 2>&1 <<<"$line"; then
        echo "bench_intent: $w: result line is not \"correct\": true" >&2
        echo "$line" | cut -c1-300 >&2
        fail=1
        continue
    fi
    jq -r --arg w "$w" '
        def v(k): .metrics[k].value;
        def row(k; range): "  \(k) = \(v(k) * 1000 | round / 1000)   (asserted: \(range))";
        "\($w): correct, failed \(.failed) of \(.attempted)",
        row("driver.unattributed_pct"; "|x| <= 5 on every workload"),
        row("share.engine_pct"; if $w == "engine_local" then ">= 80" else "not asserted here" end),
        row("share.communication_pct"; if $w == "gather_wan" then ">= 35" else "not asserted here" end),
        row("share.update_pct"; if $w == "update_mix" then "40 to 60" else "not asserted here" end),
        row("eviction.hit_ratio"; if $w == "cache_zipf" then "strictly between 0.2 and 0.95" else "not asserted here" end)
    ' <<<"$line"
done
exit "$fail"
