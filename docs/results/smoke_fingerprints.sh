#!/usr/bin/env bash
# Run every ledger workload once at smoke size, seed 2026, and diff each
# `sim_fingerprint` against the golden smoke_fingerprints.txt beside this
# script. A golden line ending in `full` runs that workload at its full
# size instead. Exits non-zero on any difference (or failed op), so a
# host-time change that moves a simulated number fails CI.
#
#   docs/results/smoke_fingerprints.sh      # ~1 min cold, ~10 s warm
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
manifest="$here/../../benchmark/Cargo.toml"
golden="$here/smoke_fingerprints.txt"
scratch="$(mktemp -d)"
trap 'rm -rf "$scratch"' EXIT

grep -v '^#' "$golden" | while read -r workload _ size; do
    size_args=(--smoke)
    if [ "$size" = full ]; then
        size_args=()
    fi
    fp="$(cargo run --release --quiet --offline --manifest-path "$manifest" -- \
        --workload "$workload" --seed 2026 "${size_args[@]}" --sweeps 1 --out-dir "$scratch" </dev/null |
        awk '$1 == "sim_fingerprint" { print $2 }')"
    echo "$workload $fp${size:+ $size}"
done >"$scratch/got.txt"

grep -v '^#' "$golden" | diff -u - "$scratch/got.txt"
echo "smoke fingerprints: ok"
