#!/usr/bin/env bash
# Library lines per crate and in total: every `crates/*/src/**/*.rs` line
# above the file's first `#[cfg(test)]` that is not blank and, trimmed,
# does not start with `//` (so doc comments and comments do not count).
#
# Usage: docs/results/lib_lines.sh [repo-root]   (default: this checkout)
set -euo pipefail
root="${1:-$(cd "$(dirname "$0")/../.." && pwd)}"
total=0
for crate in "$root"/crates/*/; do
    [ -d "$crate/src" ] || continue
    n=$(find "$crate/src" -name '*.rs' -print0 | sort -z | xargs -0 awk '
        FNR == 1 { live = 1 }
        /^[[:space:]]*#\[cfg\(test\)\]/ { live = 0 }
        live {
            line = $0
            sub(/^[[:space:]]+/, "", line)
            if (line != "" && substr(line, 1, 2) != "//") n++
        }
        END { print n + 0 }' | awk '{ s += $1 } END { print s + 0 }')
    printf '%-12s %6d\n' "$(basename "$crate")" "$n"
    total=$((total + n))
done
printf '%-12s %6d\n' total "$total"
