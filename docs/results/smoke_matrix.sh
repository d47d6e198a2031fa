#!/usr/bin/env bash
# Smoke-run every experiment binary and example of `ooc-bench`, one table row
# each. A row names the bin or example and its arguments; a row that lists
# artifacts runs twice and `cmp`s each artifact of the two runs (`{}` in the
# arguments and artifact names expands to nothing on the first run and to
# `_2` on the second); a row may also name a string none of its first-run
# artifacts may contain. Most bins assert their own claims and exit non-zero
# on a violation. After the table: the external `oocd` daemon twice over a
# Unix socket, the embedded daemon against it, and the committed session
# goldens. Artifacts are left in the repository root. Exits non-zero on the
# first failure.
#
#   docs/results/smoke_matrix.sh      # ~10 min cold, ~1 min warm
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
cd "$here/../.."

# row KIND NAME ARGS [ARTIFACTS [ABSENT]]
row() {
    local kind="$1" name="$2" args="$3" artifacts="${4:-}" absent="${5:-}"
    local tags=("")
    if [ -n "$artifacts" ]; then
        tags=("" "_2")
    fi
    for tag in "${tags[@]}"; do
        echo "== $kind $name ${args//\{\}/$tag}"
        # Arguments split on spaces by design.
        # shellcheck disable=SC2086
        cargo run --release --quiet --offline -p ooc-bench "--$kind" "$name" -- ${args//\{\}/$tag} </dev/null
    done
    for artifact in $artifacts; do
        cmp "${artifact//\{\}/}" "${artifact//\{\}/_2}"
        if [ -n "$absent" ] && grep -qF "$absent" "${artifact//\{\}/}"; then
            echo "${artifact//\{\}/} contains $absent" >&2
            exit 1
        fi
    done
}

cargo build --release --quiet --offline -p ooc-bench --examples

#   kind    name             arguments                                            artifacts compared across two runs                                   must not contain
row bin     table1           "64"
row bin     cache_sweep      "64"
row example quickstart       ""
row example gaxpy_hpf        ""
row example jacobi2d         ""
row example ooc_transpose    ""
row example memory_tuning    ""
row example staged_pipeline  ""
row bin     io_methods       "256 16"
row bin     io_methods       "64 4"
row bin     tracerun         "gaxpy --out gaxpy_trace.json --check"
row bin     tracerun         "gaxpy --column --prefetch --out gaxpy_prefetch_trace.json --check"
row bin     tracerun         "transpose --out transpose_trace.json --check"
row bin     workload         ""
row bin     scale            "--smoke"
row bin     chaos_smoke      "2026"
row bin     chaos_workload   "--jobs 16 --ranks 8 --out BENCH_chaos_workload{}.json" "BENCH_chaos_workload{}.json"                                       '"outcome": "killed"'
row bin     service          "--out BENCH_service{}.json"                          "BENCH_service{}.json BENCH_service{}.prom BENCH_service{}.html"
row bin     irregular        "--smoke --out BENCH_irregular_smoke{}.json"          "BENCH_irregular_smoke{}.json"

# The daemon is a virtual-time service: two fresh external daemons fed the
# same trace, and the embedded one, must emit byte-identical artifacts
# regardless of socket timing.
cargo build --release --quiet --offline -p ooc-bench --bin oocd --bin oocload
for tag in "" _2; do
    echo "== external oocd, run ${tag:-_1}"
    target/release/oocd --socket /tmp/oocd.sock &
    target/release/oocload --connect /tmp/oocd.sock --out "BENCH_daemon$tag.json"
    wait
done
cmp BENCH_daemon.json BENCH_daemon_2.json
cmp BENCH_daemon.prom BENCH_daemon_2.prom
echo "== embedded oocd"
target/release/oocload --out BENCH_daemon_embedded.json
cmp BENCH_daemon.json BENCH_daemon_embedded.json
cmp BENCH_daemon.prom BENCH_daemon_embedded.prom

"$here/session_goldens.sh"
echo "smoke matrix: ok"
