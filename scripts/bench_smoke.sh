#!/usr/bin/env bash
# Quick benchmark smoke run (< ~2 min): runs the criterion micro-benches
# with a small per-bench time budget and assembles the headline numbers —
# indexed vs linear id-path resolution, indexed vs scan XPath evaluation,
# and QEG execute for type 1 / type 3 queries — into BENCH_PR1.json at the
# repo root.
#
# Usage: scripts/bench_smoke.sh [per-bench budget in ms, default 300]
#
# Single-run means wobble a few percent run to run; the speedup ratios are
# the stable signal. Run on a quiet machine.
set -euo pipefail
cd "$(dirname "$0")/.."

BUDGET_MS="${1:-300}"
JSONL="$(mktemp /tmp/bench_smoke.XXXXXX.jsonl)"
trap 'rm -f "$JSONL"' EXIT

echo "== bench_smoke: criterion micro (budget ${BUDGET_MS} ms/bench) =="
CRITERION_JSONL="$JSONL" CRITERION_BUDGET_MS="$BUDGET_MS" \
    cargo bench -q -p irisnet-bench --bench micro -- \
    idpath/ xpath/idpath_eval qeg/execute

jq -s '
  INDEX(.name) | map_values(.mean_ns) as $m |
  {
    generated_by: "scripts/bench_smoke.sh",
    units: "ns (mean)",
    idpath_resolution: {
      indexed_2400:  $m["idpath/resolve_indexed_2400"],
      linear_2400:   $m["idpath/resolve_linear_2400"],
      indexed_19200: $m["idpath/resolve_indexed_19200"],
      linear_19200:  $m["idpath/resolve_linear_19200"],
      speedup_2400:  (($m["idpath/resolve_linear_2400"] / $m["idpath/resolve_indexed_2400"] * 100 | round) / 100),
      speedup_19200: (($m["idpath/resolve_linear_19200"] / $m["idpath/resolve_indexed_19200"] * 100 | round) / 100)
    },
    xpath_idpath_eval: {
      indexed_2400:  $m["xpath/idpath_eval_indexed_2400"],
      scan_2400:     $m["xpath/idpath_eval_scan_2400"],
      indexed_19200: $m["xpath/idpath_eval_indexed_19200"],
      scan_19200:    $m["xpath/idpath_eval_scan_19200"],
      speedup_2400:  (($m["xpath/idpath_eval_scan_2400"] / $m["xpath/idpath_eval_indexed_2400"] * 100 | round) / 100),
      speedup_19200: (($m["xpath/idpath_eval_scan_19200"] / $m["xpath/idpath_eval_indexed_19200"] * 100 | round) / 100)
    },
    qeg_execute: {
      t1_root_small:        $m["qeg/execute_t1_root_small"],
      t1_root_small_scan:   $m["qeg/execute_t1_root_small_scan"],
      t3_root_small:        $m["qeg/execute_t3_root_small"],
      t3_root_small_scan:   $m["qeg/execute_t3_root_small_scan"],
      t1_root_large8x:      $m["qeg/execute_t1_root_large8x"],
      t1_root_large8x_scan: $m["qeg/execute_t1_root_large8x_scan"],
      t3_root_large8x:      $m["qeg/execute_t3_root_large8x"],
      t3_root_large8x_scan: $m["qeg/execute_t3_root_large8x_scan"],
      nbhd_small:           $m["qeg/execute_nbhd_small"],
      nbhd_large8x:         $m["qeg/execute_nbhd_large8x"],
      speedup_t1_large8x: (($m["qeg/execute_t1_root_large8x_scan"] / $m["qeg/execute_t1_root_large8x"] * 100 | round) / 100),
      speedup_t3_large8x: (($m["qeg/execute_t3_root_large8x_scan"] / $m["qeg/execute_t3_root_large8x"] * 100 | round) / 100)
    }
  }' "$JSONL" > BENCH_PR1.json

echo
echo "== BENCH_PR1.json =="
jq . BENCH_PR1.json

