#!/usr/bin/env bash
# Design-intent check for perf PRs (~1 min per seed after the benchmark is
# built).
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
# This script first builds and unit-tests the benchmark package offline,
# so a change that breaks what the benchmark compiles against fails here
# and not at review. It then runs the four workloads traced through the
# BENCHMARK.json command for each seed, fails unless every result line
# says `"correct": true`, and prints the failed operations,
# `driver.unattributed_pct` and the asserted share next to their ranges,
# each with the margin left before the benchmark would call the run
# incorrect. For a run that is not correct it prints the same rows to
# stderr, so the failed check (negative margin) is named.
#
# Usage: scripts/bench_intent.sh [seed ...]   (default seeds: 1 2 3)
set -uo pipefail
cd "$(dirname "$0")/.."

SEEDS=("$@")
[ ${#SEEDS[@]} -eq 0 ] && SEEDS=(1 2 3)
MANIFEST=(--manifest-path benchmark/Cargo.toml)

if ! cargo build --release --quiet --offline "${MANIFEST[@]}"; then
    echo "bench_intent: the benchmark package does not build (cargo build --release --offline ${MANIFEST[*]})" >&2
    exit 1
fi
if ! cargo test --release --quiet --offline "${MANIFEST[@]}" >/dev/null; then
    echo "bench_intent: the benchmark package's unit tests fail (cargo test --release --offline ${MANIFEST[*]})" >&2
    exit 1
fi

mapfile -t CMD < <(jq -r '.command[]' BENCHMARK.json)
mapfile -t WORKLOADS < <(jq -r '.workloads[].name' BENCHMARK.json)

# The checks behind `"correct"`, each with its range and signed margin
# (negative: the check failed): failed operations, the untimed share of
# driver time, and the workload's asserted share or hit ratio.
CHECKS='
    def v(k): .metrics[k].value;
    def r3: . * 1000 | round / 1000;
    def row(k; x; range; margin):
        "  \(k) = \(x | r3)   (asserted: \(range); margin \(margin | r3))";
    (v("driver.unattributed_pct")) as $u
    | "seed \($seed) \($w): \($verdict)",
      row("failed"; .failed; "0 of \(.attempted)"; 0 - .failed),
      row("driver.unattributed_pct"; $u; "|x| <= 5"; 5 - ($u | fabs)),
      if $w == "engine_local" then
          row("share.engine_pct"; v("share.engine_pct"); ">= 80"; v("share.engine_pct") - 80)
      elif $w == "gather_wan" then
          row("share.communication_pct"; v("share.communication_pct"); ">= 35";
              v("share.communication_pct") - 35)
      elif $w == "update_mix" then
          v("share.update_pct") as $s
          | row("share.update_pct"; $s; "40 to 60"; [$s - 40, 60 - $s] | min)
      else
          v("eviction.hit_ratio") as $h
          | row("eviction.hit_ratio"; $h; "strictly between 0.2 and 0.95";
                [$h - 0.2, 0.95 - $h] | min)
      end
'

fail=0
for seed in "${SEEDS[@]}"; do
    for w in "${WORKLOADS[@]}"; do
        line="$("${CMD[@]}" --workload "$w" --seed "$seed" --seconds 8 --trace 1 | tail -n 1)"
        if jq -e '.correct == true' >/dev/null 2>&1 <<<"$line"; then
            jq -r --arg w "$w" --arg seed "$seed" --arg verdict correct "$CHECKS" <<<"$line"
            continue
        fi
        fail=1
        echo "bench_intent: seed $seed: $w: result line is not \"correct\": true" >&2
        # Name the failed check from the metrics the line still carries.
        if ! jq -r --arg w "$w" --arg seed "$seed" --arg verdict "NOT correct" "$CHECKS" \
            <<<"$line" >&2 2>/dev/null; then
            echo "$line" | cut -c1-300 >&2
        fi
    done
done
exit "$fail"
