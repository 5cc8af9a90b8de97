#!/usr/bin/env bash
# Line counts the ROADMAP tracks (aim 2): one table, one row per crate —
# `src/` lines, in-crate `tests/` + `benches/` lines, `in-src`: how many
# of the `src/` lines are unit tests, counted from each file's first
# top-level `#[cfg(test)]` to its end, and `product`: the `src/` lines
# that are not (`src` − `in-src`) — plus the root facade and the
# workspace-level integration tests, then the offline shims under
# `vendor/` on a row of their own, outside `total` so totals stay
# comparable across changes. Plain `wc -l` over tracked-or-not *.rs
# files. Each PATH argument (a file, relative to the repository root)
# adds a row after the table with its `src` lines and its `product`
# lines, those before its first top-level `#[cfg(test)]` — the measure
# per-file line targets are set in.
#
# Usage: scripts/loc.sh [PATH...]
set -euo pipefail

cd "$(dirname "$0")/.."

# Total lines of the *.rs files under the given directories (0 if none).
lines() {
    local total=0 dir n
    for dir in "$@"; do
        [ -d "$dir" ] || continue
        n="$(find "$dir" -name '*.rs' -type f -exec cat {} + | wc -l)"
        total=$((total + n))
    done
    echo "$total"
}

# Lines of the *.rs files under the given directories from each file's
# first top-level `#[cfg(test)]` to its end (0 if none).
test_lines() {
    local total=0 dir n
    for dir in "$@"; do
        [ -d "$dir" ] || continue
        n="$(find "$dir" -name '*.rs' -type f -exec awk '
            FNR == 1 { seen = 0 }
            /^#\[cfg\(test\)\]/ { seen = 1 }
            seen { n++ }
            END { print n + 0 }' {} + | awk '{ s += $1 } END { print s + 0 }')"
        total=$((total + n))
    done
    echo "$total"
}

printf '%-16s %8s %8s %8s %8s\n' crate src tests in-src product
src_total=0
tests_total=0
in_src_total=0
row() {
    printf '%-16s %8d %8d %8d %8d\n' "$1" "$2" "$3" "$4" $(($2 - $4))
    src_total=$((src_total + $2))
    tests_total=$((tests_total + $3))
    in_src_total=$((in_src_total + $4))
}
for crate in crates/*/; do
    crate="${crate%/}"
    row "$(basename "$crate")" "$(lines "$crate/src")" \
        "$(lines "$crate/tests" "$crate/benches")" "$(test_lines "$crate/src")"
done
row "minoan (root)" "$(lines src)" "$(lines tests examples)" "$(test_lines src)"
printf '%-16s %8d %8d %8d %8d\n' total "$src_total" "$tests_total" "$in_src_total" \
    $((src_total - in_src_total))
vendor_src="$(lines vendor/*/src)"
vendor_in_src="$(test_lines vendor/*/src)"
printf '%-16s %8d %8d %8d %8d\n' "vendor (shims)" "$vendor_src" \
    "$(lines vendor/*/tests vendor/*/benches)" "$vendor_in_src" $((vendor_src - vendor_in_src))
[ "$#" -eq 0 ] && exit 0
printf '\n%-44s %8s %8s\n' file src product
for file in "$@"; do
    printf '%-44s %8d %8d\n' "$file" "$(wc -l < "$file")" \
        "$(awk '/^#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }' "$file")"
done
