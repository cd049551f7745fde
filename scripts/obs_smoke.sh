#!/usr/bin/env bash
# Observability smoke: exercises the tracing/metrics plane end to end
# (~30 s after a release build).
#
# exp_explain (release): two-site DES run with a recorder attached; dumps
# spans + metrics as JSONL, round-trips the dump through the parser,
# prints `query explain` reports. The JSONL is re-validated here line by
# line with jq. Tracing overhead is measured by the repository benchmark
# (`irisobs.trace_overhead_pct`), not here.
#
# Usage: scripts/obs_smoke.sh
set -uo pipefail
cd "$(dirname "$0")/.."

TRACE_JSONL="$(mktemp /tmp/obs_smoke.XXXXXX.jsonl)"
trap 'rm -f "$TRACE_JSONL"' EXIT

echo "== obs_smoke: build (release) =="
cargo build --release -q -p irisnet-bench --bin exp_explain || exit 1

echo "== obs_smoke: exp_explain -> $TRACE_JSONL =="
EXPLAIN_OUT="$(cargo run --release -q -p irisnet-bench --bin exp_explain -- "$TRACE_JSONL")" || exit 1
echo "$EXPLAIN_OUT" | head -n 1
echo "$EXPLAIN_OUT" | grep -q "roundtrip ok" || { echo "obs_smoke: exp_explain round-trip failed" >&2; exit 1; }
echo "$EXPLAIN_OUT" | grep -q "cache s1: hit=0 partial-match=1" \
    || { echo "obs_smoke: first query did not partial-match the cache" >&2; exit 1; }

# JSONL invariants: every line is valid single-line JSON with a known type;
# spans carry id/site/kind/t0, counters carry name/value, histograms buckets.
jq -e -s '
  (length > 0)
  and all(.[]; .type == "span" or .type == "counter" or .type == "hist")
  and all(.[] | select(.type == "span");
          has("id") and has("site") and has("kind") and has("t0")
          and (.link == "root" or .link == "child" or .link == "ask" or .link == "xfer"))
  and all(.[] | select(.type == "counter"); has("name") and has("value"))
  and all(.[] | select(.type == "hist"); has("name") and has("count") and has("buckets"))
  and any(.[]; .type == "span" and .cache == "partial-match")
  and any(.[]; .type == "counter" and .name == "oa.user_queries")
' "$TRACE_JSONL" > /dev/null \
    || { echo "obs_smoke: JSONL validation failed for $TRACE_JSONL" >&2; exit 1; }
echo "obs_smoke: JSONL valid ($(wc -l < "$TRACE_JSONL") lines)"
echo "obs_smoke: all green"
