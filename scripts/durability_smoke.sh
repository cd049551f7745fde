#!/usr/bin/env bash
# Durability smoke: the PR 8 recovery stress in release mode (~2 min after
# build). Three legs:
#
#  1. storage_prop at three fixed proptest seeds — torn-tail truncation /
#     corruption recovers a clean op-aligned prefix, snapshot compaction
#     replays to the same state as the pure WAL, golden record/segment
#     bytes stay pinned;
#  2. the crash/restart recovery plane (DES, sharded File backend) +
#     the crash-then-restart chaos-equivalence ablation;
#  3. exp_recovery — jq-asserted bounds on replay: every cell replays its
#     full expected tail, and no recovery takes longer than 2 s.
#
# A proptest failure replays exactly: rerun with the printed
# PROPTEST_RNG_SEED.
#
# Usage: scripts/durability_smoke.sh
set -uo pipefail
cd "$(dirname "$0")/.."

SEEDS=(1 42 20030609)   # fixed: SIGMOD'03 vintage + two old friends
FAIL=0

run() {
    echo "== durability_smoke: $* =="
    if ! "$@"; then
        FAIL=1
        return 1
    fi
}

# Torn tails, compaction equivalence, golden bytes — per seed.
for seed in "${SEEDS[@]}"; do
    echo "== durability_smoke: storage sweep (PROPTEST_RNG_SEED=$seed) =="
    if ! PROPTEST_RNG_SEED="$seed" \
        cargo test --release -q --test storage_prop; then
        FAIL=1
        echo "durability_smoke: FAILED at PROPTEST_RNG_SEED=$seed" >&2
        echo "replay: PROPTEST_RNG_SEED=$seed cargo test --release --test storage_prop" >&2
    fi
done

# Deterministic crash/restart planes: DES + sharded File backend,
# the restart-empty ablation, and the healed partial-answer path.
run cargo test --release -q --test durability_recovery
run cargo test --release -q --test partial_answers temporary_crash
run cargo test --release -q --test chaos_equivalence crash_then_restart

# Recovery-time bounds. exp_recovery asserts replay completeness
# internally (records_replayed == expected per cell); here jq pins the
# numbers the table is allowed to report.
run cargo build --release -q -p irisnet-bench --bin exp_recovery
OUT=$(mktemp /tmp/bench_pr8.XXXXXX.json)
run ./target/release/exp_recovery --out "$OUT"
if command -v jq >/dev/null 2>&1; then
    echo "== durability_smoke: jq bounds on $OUT =="
    if ! jq -e '
        (.results | length) == 12
        and all(.results[]; .records_replayed >= 128 and .replay_ms < 2000)
        and all(.results[] | select(.mode == "wal-tail");
                .records_replayed == .updates)
        and all(.results[] | select(.mode == "mid-snapshot");
                .records_replayed * 2 == .updates)
    ' "$OUT" >/dev/null; then
        FAIL=1
        echo "durability_smoke: replay bounds violated in $OUT" >&2
        jq '.results' "$OUT" >&2 || cat "$OUT" >&2
    fi
else
    echo "durability_smoke: jq not found, skipping bounds check" >&2
fi
rm -f "$OUT"

if [ "$FAIL" -ne 0 ]; then
    echo "durability_smoke: FAILURES (see above)" >&2
    exit 1
fi
echo "durability_smoke: all green (${#SEEDS[@]} seed sweeps + recovery planes + replay bounds)"
