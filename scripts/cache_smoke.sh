#!/usr/bin/env bash
# Bounded-cache smoke (~1-2 min after a release build): proves the PR 6
# cache plane end to end and regenerates BENCH_PR6.json.
#
#  1. Correctness oracle (release): DES-vs-sharded byte-identical answers at
#     every eviction-policy setting, hot-path regression (cache-hit query
#     takes no write lock, does zero eviction work), and the eviction
#     proptests under a fixed PROPTEST_RNG_SEED for replayability.
#  2. exp_caching --budget-sweep (release): hit rate, evictions and
#     p50/p99 vs node budget for LRU / heat-weighted / segment-age under
#     a Zipf-skewed QW-Mix; writes BENCH_PR6.json at the repo root and
#     validates it with jq.
#
# Usage: scripts/cache_smoke.sh [sweep duration in virtual s, default 30]
set -uo pipefail
cd "$(dirname "$0")/.."

DUR="${1:-30}"
export PROPTEST_RNG_SEED="${PROPTEST_RNG_SEED:-1786}"

echo "== cache_smoke: build (release) =="
cargo build --release -q -p irisnet-core -p irisnet-bench --bin exp_caching || exit 1

echo "== cache_smoke: DES-vs-sharded answer equivalence across policies =="
cargo test --release -q --test cache_equivalence || exit 1

echo "== cache_smoke: hot-path regression (no write lock on a cache hit) =="
cargo test --release -q -p irisnet-core --test cache_hot_path || exit 1

echo "== cache_smoke: eviction proptests (PROPTEST_RNG_SEED=$PROPTEST_RNG_SEED) =="
cargo test --release -q --test cache_prop || exit 1

echo "== cache_smoke: budget sweep (${DUR}s virtual per cell) -> BENCH_PR6.json =="
CACHE_SWEEP_DURATION="$DUR" \
    cargo run --release -q -p irisnet-bench --bin exp_caching -- \
    --budget-sweep BENCH_PR6.json || exit 1

# Shape check: >= 3 policies, 4 budgets each, sane rates and latencies.
jq -e '
  (.results | length) == 12
  and ([.results[].policy] | unique | length) >= 3
  and all(.results[]; .hit_rate >= 0 and .hit_rate <= 1 and .qps > 0 and .p99_ms > 0)
  and ([.results[] | select(.budget_nodes < 10000) | .evictions] | add) > 0
' BENCH_PR6.json > /dev/null \
    || { echo "cache_smoke: BENCH_PR6.json validation failed" >&2; exit 1; }
echo
echo "== BENCH_PR6.json =="
jq . BENCH_PR6.json
echo "cache_smoke: all green"
