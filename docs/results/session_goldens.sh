#!/usr/bin/env bash
# Regenerate every drained session artifact the smoke jobs produce, the
# full-size `irregular` ladder's artifact, the stdout of `io_methods` at two
# sizes and of the `jacobi2d` example, and the Perfetto JSON of the traced
# transpose and of the traced Jacobi sweep (plain and prefetched), and diff
# their sha256 sums against
# the golden session_goldens.txt beside this script. The smoke jobs `cmp` two runs of the same build; this pins the
# bytes to a committed reference, so a change that moves a drained byte the
# same way in both runs still fails. Exits non-zero on any difference.
#
#   docs/results/session_goldens.sh      # ~2 min cold, ~15 s warm
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
manifest="$here/../../Cargo.toml"
golden="$here/session_goldens.txt"
scratch="$(mktemp -d)"
trap 'rm -rf "$scratch"' EXIT

run() {
    local bin="$1"
    shift
    cargo run --release --quiet --offline --manifest-path "$manifest" -p ooc-bench \
        --bin "$bin" -- "$@" </dev/null >/dev/null
}
run oocload --out "$scratch/BENCH_daemon.json"
run service --out "$scratch/BENCH_service.json"
run chaos_workload --jobs 16 --ranks 8 --out "$scratch/BENCH_chaos_workload.json"
run workload --out "$scratch/BENCH_workload.json"
run irregular --out "$scratch/BENCH_irregular.json"
run tracerun transpose --out "$scratch/transpose_trace.json" --check
run tracerun jacobi --out "$scratch/jacobi_trace.json" --check
run tracerun jacobi --prefetch --out "$scratch/jacobi_prefetch_trace.json" --check
# io_methods prints to stdout only; its tables carry every request-size
# histogram of the three remap access methods.
for size in "256 16" "64 4"; do
    # shellcheck disable=SC2086
    cargo run --release --quiet --offline --manifest-path "$manifest" -p ooc-bench \
        --bin io_methods -- $size </dev/null >"$scratch/io_methods_${size// /_}.txt"
done
cargo run --release --quiet --offline --manifest-path "$manifest" -p ooc-bench \
    --example jacobi2d </dev/null >"$scratch/jacobi2d.txt"

(cd "$scratch" && sha256sum BENCH_daemon.json BENCH_daemon.prom BENCH_service.json \
    BENCH_service.prom BENCH_service.html BENCH_chaos_workload.json BENCH_workload.json \
    BENCH_irregular.json io_methods_256_16.txt io_methods_64_4.txt \
    transpose_trace.json jacobi_trace.json jacobi_prefetch_trace.json \
    jacobi2d.txt) >"$scratch/got.txt"
grep -v '^#' "$golden" | diff -u - "$scratch/got.txt"
echo "session goldens: ok"
