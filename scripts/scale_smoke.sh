#!/usr/bin/env bash
# Sharded-runtime scale smoke (~2-3 min after a release build): proves the
# sharded runtime end to end.
#
#  1. Correctness (release): answers byte-identical across shard counts
#     {1,2,8} and vs the DES oracle (with and without forced wire
#     framing), wire-format roundtrip/golden-bytes proptests under a fixed
#     PROPTEST_RNG_SEED, and the shutdown stress that stops shards
#     mid-workload.
#  2. exp_scale (release): a 10,000-site hierarchy under a Zipf QW-Mix —
#     asserts in-process that the sharded answers match a DES replay
#     byte-for-byte, samples the process's peak OS thread count, and
#     sweeps qps/p50/p99 over shard count x site count; the report goes
#     to a temporary file.
#  3. jq shape check, including the ROADMAP acceptance signal: OS threads
#     <= thread_budget (shards + shard workers + delayer) + clients +
#     harness const — i.e. thread count is set by cores, not by the
#     10,000 sites.
#
# Usage: scripts/scale_smoke.sh [headline site count, default 10000]
set -uo pipefail
cd "$(dirname "$0")/.."

HEADLINE="${1:-10000}"
export PROPTEST_RNG_SEED="${PROPTEST_RNG_SEED:-1786}"
REPORT="$(mktemp /tmp/scale_smoke.XXXXXX.json)"
trap 'rm -f "$REPORT"' EXIT

echo "== scale_smoke: build (release) =="
cargo build --release -q -p simnet -p irisnet-bench --bin exp_scale || exit 1

echo "== scale_smoke: shard/DES answer + trace equivalence =="
cargo test --release -q --test worker_equivalence --test trace_equivalence || exit 1

echo "== scale_smoke: wire-format proptests (PROPTEST_RNG_SEED=$PROPTEST_RNG_SEED) =="
cargo test --release -q --test wire_prop || exit 1

echo "== scale_smoke: shutdown stress (stop shards mid-workload) =="
cargo test --release -q --test shard_stress || exit 1

echo "== scale_smoke: ${HEADLINE}-site headline + shard sweep -> $REPORT =="
SCALE_HEADLINE_SITES="$HEADLINE" \
    cargo run --release -q -p irisnet-bench --bin exp_scale -- \
    --out "$REPORT" || exit 1

# Shape check. The thread bound is the acceptance criterion: the process's
# peak OS thread count during the headline run must stay within the
# runtime's own budget (shards*(1+workers)+delayer) plus the client
# threads and a small harness constant (main + sampler + slack), and must
# be orders of magnitude below the site count.
jq -e --argjson headline "$HEADLINE" '
  .host_cores >= 1
  and .headline.sites == $headline
  and .headline.des_equivalent == true
  and .headline.threads_observed >= 1
  and .headline.threads_observed <= (.headline.thread_budget + .headline.clients + 3)
  and (.headline.threads_observed * 100) < .headline.sites
  and .headline.qps > 0
  and (.results | length) >= 4
  and ([.results[].shards] | unique | length) >= 2
  and all(.results[]; .qps > 0 and .p50_ms > 0 and .p99_ms >= .p50_ms)
' "$REPORT" > /dev/null \
    || { echo "scale_smoke: report validation failed" >&2; jq . "$REPORT" >&2; exit 1; }
echo "scale_smoke: all green"
