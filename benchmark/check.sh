#!/usr/bin/env bash
# Run every workload twice and require the two runs to agree: every
# simulated metric, the op counts and sim_fingerprint exactly, every host
# metric within its bound. Exits non-zero otherwise.
#
#   benchmark/check.sh            # the stated sizes (~3 min)
#   benchmark/check.sh --smoke    # tiny sizes (~10 s)
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
exec cargo run --release --quiet --offline --manifest-path "$here/Cargo.toml" -- --repeat-check "$@"
