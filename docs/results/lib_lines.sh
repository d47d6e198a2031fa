#!/usr/bin/env bash
# Library lines per crate and in total: every `crates/*/src/**/*.rs` line
# above the file's test module (a top-level `#[cfg(test)]` whose next line
# starts with `mod`) that is not blank and, trimmed, does not start with
# `//` (so doc comments and comments do not count). An indented
# `#[cfg(test)]`, or one on a test-only item, does not end the count.
#
# Usage: docs/results/lib_lines.sh [repo-root]   (default: this checkout)
set -euo pipefail
root="${1:-$(cd "$(dirname "$0")/../.." && pwd)}"
total=0
for crate in "$root"/crates/*/; do
    [ -d "$crate/src" ] || continue
    n=$(find "$crate/src" -name '*.rs' -print0 | sort -z | xargs -0 awk '
        function count(line) {
            sub(/^[[:space:]]+/, "", line)
            if (line != "" && substr(line, 1, 2) != "//") n++
        }
        FNR == 1 { if (held) count(held); live = 1; held = "" }
        held != "" {
            # The line after a top-level #[cfg(test)]: `mod` ends the file.
            if ($0 ~ /^(pub(\([a-z]+\))? )?mod /) live = 0
            else count(held)
            held = ""
        }
        live && /^#\[cfg\(test\)\]/ { held = $0; next }
        live { count($0) }
        END { if (held) count(held); print n + 0 }' | awk '{ s += $1 } END { print s + 0 }')
    printf '%-12s %6d\n' "$(basename "$crate")" "$n"
    total=$((total + n))
done
printf '%-12s %6d\n' total "$total"
