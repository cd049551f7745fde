#!/usr/bin/env bash
# Paired comparison of two builds of the repository benchmark on one
# workload, judged per metric by the paired-runs rule the repository uses
# for performance claims:
#
#   - N pairs, alternating which side runs first (pair 1: parent first);
#   - the change wins a pair when its value is better in the metric's
#     direction (BENCHMARK.json `better`); ties count for neither side;
#   - a gain is claimed only when the change wins at least nine tenths of
#     the pairs AND the medians differ, in the better direction, by more
#     than the parent's own spread (its third minus first quartile).
#
# Build each commit's benchmark into its own target directory first, e.g.
#   git archive --prefix=parent/ HEAD~1 | tar -x -C /tmp
#   (cd /tmp/parent && CARGO_TARGET_DIR=/tmp/parent_target \
#       cargo build --release --offline --manifest-path benchmark/Cargo.toml)
#   CARGO_TARGET_DIR=/tmp/change_target \
#       cargo build --release --offline --manifest-path benchmark/Cargo.toml
#   scripts/bench_pairs.sh /tmp/parent_target/release/irisnet-benchmark \
#       /tmp/change_target/release/irisnet-benchmark gather_wan p50_ms,qps
#
# Usage: scripts/bench_pairs.sh PARENT_BIN CHANGE_BIN WORKLOAD METRIC[,METRIC...] [N=10]
# (several metrics are judged on the same runs).
# Environment: SEED (default 1), RUN_SECONDS (default BENCHMARK.json's
# run_seconds), TRACE (default 0; 1 compares per-layer metrics).
#
# Prints one line per pair, then per metric each side's median and
# quartiles, the wins, the number of failed operations, and the verdict;
# exits 0 either way (1 on a failed run). Result lines go
# to a temporary directory that is removed on exit; nothing in the
# repository is written.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ $# -lt 4 ] || [ $# -gt 5 ]; then
    echo "usage: $0 PARENT_BIN CHANGE_BIN WORKLOAD METRIC[,METRIC...] [N=10]" >&2
    exit 2
fi
PARENT=$1
CHANGE=$2
WORKLOAD=$3
IFS=, read -r -a METRICS <<<"$4"
N=${5:-10}
SEED=${SEED:-1}
RUN_SECONDS=${RUN_SECONDS:-$(jq -r '.run_seconds' BENCHMARK.json)}
TRACE=${TRACE:-0}

for m in "${METRICS[@]}"; do
    if ! jq -e --arg m "$m" '[.end_to_end[], .per_layer[]] | any(.name == $m)' \
        BENCHMARK.json >/dev/null; then
        echo "bench_pairs: $m is not a metric in BENCHMARK.json" >&2
        exit 2
    fi
done
METRICS_JSON=$(printf '%s\n' "${METRICS[@]}" | jq -R . | jq -sc .)
for bin in "$PARENT" "$CHANGE"; do
    [ -x "$bin" ] || { echo "bench_pairs: $bin is not an executable" >&2; exit 2; }
done

TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT

# One run; prints the metrics' values and appends the result line.
run() {
    local side=$1 bin=$2 line
    line=$("$bin" --workload "$WORKLOAD" --seed "$SEED" --seconds "$RUN_SECONDS" \
        --trace "$TRACE" | tail -n 1)
    echo "$line" >>"$TMP/$side.jsonl"
    jq -er --argjson ms "$METRICS_JSON" \
        '[$ms[] as $m | .metrics[$m].value | if . == null then error("no \($m)") else . end]
         | map(tostring) | join(" ")' <<<"$line"
}

echo "workload $WORKLOAD, metrics ${METRICS[*]}, seed $SEED," \
    "${RUN_SECONDS} s per run, trace $TRACE, $N pairs"
for i in $(seq 1 "$N"); do
    if [ $((i % 2)) -eq 1 ]; then
        p=$(run parent "$PARENT"); c=$(run change "$CHANGE"); first=parent
    else
        c=$(run change "$CHANGE"); p=$(run parent "$PARENT"); first=change
    fi
    echo "pair $i ($first first): parent $p  change $c"
done

jq -rs --argjson ms "$METRICS_JSON" --slurpfile bench BENCHMARK.json '
    def q(p): sort as $a | ((($a | length) - 1) * p) as $h | ($h | floor) as $l
        | $a[$l] + ($h - $l) * ($a[[$l + 1, ($a | length) - 1] | min] - $a[$l]);
    def stats: "median \(q(0.5)), quartiles \(q(0.25)) .. \(q(0.75))";
    def r4: . * 10000 | round / 10000;
    (map(select(.side == "parent") | .line)) as $pl
    | (map(select(.side == "change") | .line)) as $cl
    | "failed operations: parent \($pl | map(.failed) | add), change \($cl | map(.failed) | add)",
      ($ms[] as $m
    | ($bench[0] | [.end_to_end[], .per_layer[]] | map(select(.name == $m)) | .[0].better)
        as $better
    | ($pl | map(.metrics[$m].value)) as $p
    | ($cl | map(.metrics[$m].value)) as $c
    | ([range(0; $p | length)]
        | map(if $better == "lower" then ($c[.] < $p[.]) else ($c[.] > $p[.]) end)
        | map(select(.)) | length) as $wins
    | ($p | q(0.75) - q(0.25)) as $iqr
    | (if $better == "lower" then ($p | q(0.5)) - ($c | q(0.5))
       else ($c | q(0.5)) - ($p | q(0.5)) end) as $gain
    | ($p | length) as $n
    | "\($m) (\($better) is better):",
      "  parent: \($p | stats)",
      "  change: \($c | stats)",
      "  change / parent median: \((($c | q(0.5)) / ($p | q(0.5))) | r4)",
      "  wins: change \($wins) of \($n) pairs (needs \(($n * 9 + 9) / 10 | floor))",
      "  median gain \($gain | r4) vs parent quartile distance \($iqr | r4)",
      if $wins * 10 >= $n * 9 and $gain > $iqr then "  verdict: GAIN"
      else "  verdict: no gain shown" end)
' < <(jq -c '{side: "parent", line: .}' "$TMP/parent.jsonl"; jq -c '{side: "change", line: .}' "$TMP/change.jsonl")
