#!/usr/bin/env bash
# Rust line counts (`wc -l` over every `.rs` file, recursively): one row
# per crate under crates/, then stubs/, tests/, benchmark/src and the
# total of all rows. Writes nothing.
#
# Usage: scripts/loc.sh [repo root, default: this checkout]
set -euo pipefail
ROOT="${1:-$(dirname "$0")/..}"
cd "$ROOT"

count() {
    find "$1" -name '*.rs' -type f -print0 2>/dev/null | xargs -0 -r cat | wc -l
}

total=0
row() {
    local n
    n=$(count "$1")
    total=$((total + n))
    printf '%-24s %7d\n' "$1" "$n"
}

for dir in crates/*/; do
    row "${dir%/}"
done
for dir in stubs tests benchmark/src; do
    [ -d "$dir" ] && row "$dir"
done
printf '%-24s %7d\n' total "$total"
