#!/usr/bin/env bash
# Telemetry smoke: exercises the continuous telemetry plane end to end
# (~1 min after a release build).
#
# exp_telemetry (release): scrape latency/payload size across window
# depths 6/24/96, and a forced-fault two-site run whose flight-recorder
# scrape payload is dumped as JSONL and re-validated here with jq —
# well-formed header, the `evicted + windowed == total` conservation law
# on every windowed counter, and a complete partial-triggered span tree
# whose span count matches its trace header. The plane's cost is priced
# by the repository benchmark, not here.
#
# Usage: scripts/telemetry_smoke.sh
set -uo pipefail
cd "$(dirname "$0")/.."

PAYLOAD="$(mktemp /tmp/telemetry_smoke.XXXXXX.jsonl)"
RUN_JSON="$(mktemp /tmp/telemetry_smoke.XXXXXX.json)"
trap 'rm -f "$PAYLOAD" "$RUN_JSON"' EXIT

echo "== telemetry_smoke: build (release) =="
cargo build --release -q -p irisnet-bench --bin exp_telemetry || exit 1

echo "== telemetry_smoke: exp_telemetry -> $RUN_JSON =="
cargo run --release -q -p irisnet-bench --bin exp_telemetry -- "$PAYLOAD" \
    > "$RUN_JSON" || exit 1
cat "$RUN_JSON"

# The run JSON itself must report a captured partial trace, the dead site
# unreachable, and a non-empty scrape table across all three depths.
jq -e '
  .flight.partial_trace_captured == true
  and .flight.dead_site_health == "unreachable"
  and (.flight.traces >= 1)
  and (.scrape | length == 3)
  and all(.scrape[]; .payload_bytes > 0 and .scrape_micros > 0)
' "$RUN_JSON" > /dev/null \
    || { echo "telemetry_smoke: run report failed validation" >&2; exit 1; }

# Scrape-payload invariants, line by line: a well-formed header, the
# conservation law on every windowed counter, at least one
# partial-triggered flight trace, and every trace's span tree complete
# (emitted span lines match the trace header's span count).
jq -e -s '
  . as $all
  | (.[0].type == "telemetry") and (.[0].enabled == true) and (.[0].site == 1)
  and (.[0] | has("health") and has("win_width") and has("win_depth"))
  and all(.[] | select(.type == "win_counter");
          .total == .evicted + .windowed)
  and any(.[]; .type == "flight_trace" and (.trigger | contains("partial")))
  and all(.[] | select(.type == "flight_trace"); . as $t
          | ([$all[] | select(.type == "span" and .trace == $t.seq)] | length) == $t.spans)
  and any(.[]; .type == "span" and .kind == "ask")
' "$PAYLOAD" > /dev/null \
    || { echo "telemetry_smoke: scrape payload validation failed for $PAYLOAD" >&2; exit 1; }
echo "telemetry_smoke: scrape payload valid ($(wc -l < "$PAYLOAD") lines, flight dump non-empty)"

echo "telemetry_smoke: all green"
