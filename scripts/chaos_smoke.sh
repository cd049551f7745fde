#!/usr/bin/env bash
# Chaos smoke: runs the fault-injection test suite in release mode at three
# fixed proptest seeds (~1 min after build). Every fault decision is a pure
# function of (plan seed, link, sequence number), so any failure replays
# exactly: rerun with the printed PROPTEST_RNG_SEED, and the failing case's
# assertion message carries the per-case FaultPlan seed + full plan.
#
# Usage: scripts/chaos_smoke.sh
set -uo pipefail
cd "$(dirname "$0")/.."

SEEDS=(1 42 20030609)   # fixed: SIGMOD'03 vintage + two old friends
FAIL=0

run() {
    echo "== chaos_smoke: $* =="
    if ! "$@"; then
        FAIL=1
        return 1
    fi
}

# Deterministic, seed-independent suites first: message-level idempotency
# and the crash → partial-answer degradation path.
run cargo test --release -q -p irisnet-core --test retry_dedup
run cargo test --release -q --test partial_answers

# Masked-fault equivalence (24 proptest cases per sweep). The proptest
# stub derives every generated FaultPlan seed from PROPTEST_RNG_SEED, so
# one env var pins the whole run.
for seed in "${SEEDS[@]}"; do
    echo "== chaos_smoke: equivalence sweep (PROPTEST_RNG_SEED=$seed) =="
    if ! PROPTEST_RNG_SEED="$seed" \
        cargo test --release -q --test chaos_equivalence; then
        FAIL=1
        echo "chaos_smoke: FAILED at PROPTEST_RNG_SEED=$seed" >&2
        echo "replay: PROPTEST_RNG_SEED=$seed cargo test --release --test chaos_equivalence" >&2
        echo "(the assertion output above includes the failing FaultPlan seed and plan)" >&2
    fi
done

# Shutdown liveness: clients racing a worker-pool teardown must fail fast.
run cargo test --release -q --test shard_stress shutdown_races

if [ "$FAIL" -ne 0 ]; then
    echo "chaos_smoke: FAILURES (see seeds above)" >&2
    exit 1
fi
echo "chaos_smoke: all green (${#SEEDS[@]} seed sweeps + deterministic suites)"
