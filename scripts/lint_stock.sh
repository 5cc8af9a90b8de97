#!/usr/bin/env bash
# The stock lints that replaced minoan-lint's ML002, ML006, ML007 and the
# `unwrap` half of ML005, checked two ways:
#
# 1. Each replaced rule's fixtures under crates/lint/tests/lint_fixtures/
#    go through `clippy-driver` at the lint levels of the root
#    `Cargo.toml`'s `[workspace.lints]` and the paths of `clippy.toml`: a
#    `*_fire` fixture must fail with exactly the lints its case names, a
#    `*_clean` one must compile with no diagnostic at all. ML006's two
#    manifests go through the manifest check below, in a scratch
#    workspace.
# 2. The manifest checks, on the tree: every dependency of every
#    workspace package resolves to a path (`cargo metadata`, offline, no
#    resolution), no `vendor/` member is left that no package depends on
#    and no `[workspace.dependencies]` key that no member uses, every
#    `crates/*/Cargo.toml` and the root package take `[lints] workspace =
#    true`, and no `unsafe_code` escape stands outside the root `tests/`.
#    The orphan check fires first on a scratch workspace of its own.
#
# Needs clippy-driver, cargo and jq; no network. No arguments; exits 1 on
# the first failing check and prints what failed.
set -euo pipefail

cd "$(dirname "$0")/.."
root="$PWD"
fixtures="crates/lint/tests/lint_fixtures"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
start=$SECONDS

fail() {
    echo "lint_stock: $*" >&2
    exit 1
}

# `--<level>` / `<lint>` argument pairs from `[workspace.lints.rust]` and
# `[workspace.lints.clippy]`, in file order.
mapfile -t levels < <(awk '
    /^\[/ {
        tool = "-"
        if ($0 == "[workspace.lints.rust]") tool = ""
        if ($0 == "[workspace.lints.clippy]") tool = "clippy::"
        next
    }
    tool != "-" && /^[a-z_]+ *= *"[a-z]+"/ {
        level = $3
        gsub(/"/, "", level)
        print "--" level
        print tool $1
    }' Cargo.toml)
[ "${#levels[@]}" -gt 0 ] || fail "no [workspace.lints] levels found in Cargo.toml"

# The error codes one fixture raises under the workspace levels, sorted
# and de-duplicated; a clean compile prints nothing. Any warning counts
# too: `-D warnings`, as in CI's clippy step.
lints_of() {
    local log="$tmp/$1.json"
    # The exit status is read from the diagnostics, not from the driver.
    CLIPPY_CONF_DIR="$root" clippy-driver --edition 2021 --crate-type lib \
        --emit=metadata --out-dir "$tmp" --error-format=json \
        "${levels[@]}" -D warnings "$fixtures/$1" 2>"$log" >/dev/null || true
    jq -r 'select(.level == "error" and (.message | startswith("aborting") | not))
           | .code.code // "uncoded"' "$log" |
        sort -u | paste -sd' ' -
}

# fire FIXTURE LINT... — must fail with exactly these lints.
fire() {
    local fixture="$1" got want
    shift
    want="$(printf '%s\n' "$@" | sort -u | paste -sd' ' -)"
    got="$(lints_of "$fixture")"
    [ "$got" = "$want" ] || fail "$fixture: want errors [$want], got [$got]"
    echo "fire  $fixture: $got"
}

# clean FIXTURE — must compile with no diagnostic.
clean() {
    local got
    got="$(lints_of "$1")"
    [ -z "$got" ] || fail "$1: want no errors, got [$got]"
    echo "clean $1"
}

fire ml002a_fire.rs clippy::disallowed_types
clean ml002a_clean.rs
fire ml002b_fire.rs clippy::disallowed_methods clippy::iter_over_hash_type
clean ml002b_clean.rs
fire ml005_fire.rs clippy::unwrap_used
clean ml005_clean.rs
fire ml007_fire.rs unsafe_code
clean ml007_clean.rs

# Every dependency of the workspace whose manifest is `$1` that does not
# resolve to a path, one `package: dependency source` line each.
unpathed_deps() {
    cargo metadata --no-deps --offline --format-version 1 --manifest-path "$1" |
        jq -r '.packages[] | .name as $p | .dependencies[]
               | select(.path == null) | "\($p): \(.name) \(.source)"'
}

# The orphans of the workspace whose manifest is `$1`, one line each: a
# member under its `vendor/` that no package depends on (normal, dev or
# build), and a `[workspace.dependencies]` key that no member names.
orphans() {
    local meta used
    meta="$(cargo metadata --no-deps --offline --format-version 1 --manifest-path "$1")"
    used="$(jq -r '.packages[].dependencies[] | .rename // .name' <<<"$meta" | sort -u)"
    jq -r '.workspace_root as $root | .packages[]
           | select(.manifest_path | startswith($root + "/vendor/")) | .name' <<<"$meta" |
        while read -r name; do
            grep -qxF "$name" <<<"$used" || echo "vendor member $name: no package depends on it"
        done
    awk '/^\[/ { on = ($0 == "[workspace.dependencies]") } on && /^[A-Za-z0-9_-]+ *=/ { print $1 }' "$1" |
        while read -r key; do
            grep -qxF "$key" <<<"$used" || echo "workspace dependency $key: no member uses it"
        done
}

# ML006's fixtures as the one member of a scratch workspace that has the
# root's `[workspace.dependencies]`, paths made absolute, and a sibling
# package `local` for the clean fixture's relative path.
ws="$tmp/ws"
mkdir -p "$ws/crates/fixture/src" "$ws/crates/local/src"
touch "$ws/crates/fixture/src/lib.rs" "$ws/crates/local/src/lib.rs"
printf '[package]\nname = "local"\n' >"$ws/crates/local/Cargo.toml"
{
    printf '[workspace]\nmembers = ["crates/fixture"]\n\n'
    awk -v root="$root" '
        /^\[/ { on = ($0 == "[workspace.dependencies]") }
        on { gsub(/path = "/, "path = \"" root "/"); print }' Cargo.toml
} >"$ws/Cargo.toml"
cp "$fixtures/ml006_fire.toml" "$ws/crates/fixture/Cargo.toml"
got="$(unpathed_deps "$ws/Cargo.toml" | wc -l)"
[ "$got" -eq 3 ] || fail "ml006_fire.toml: want 3 dependencies without a path, got $got"
echo "fire  ml006_fire.toml: $got dependencies without a path"
cp "$fixtures/ml006_clean.toml" "$ws/crates/fixture/Cargo.toml"
got="$(unpathed_deps "$ws/Cargo.toml")"
[ -z "$got" ] || fail "ml006_clean.toml: dependencies without a path: $got"
echo "clean ml006_clean.toml"

# The orphan check's fire case: a scratch workspace whose `vendor/orphan`
# member and `orphan` key nothing uses, beside a `used` shim that `app`
# depends on.
ws="$tmp/orphans"
for member in crates/app vendor/used vendor/orphan; do
    mkdir -p "$ws/$member/src"
    touch "$ws/$member/src/lib.rs"
    printf '[package]\nname = "%s"\n' "$(basename "$member")" >"$ws/$member/Cargo.toml"
done
printf '\n[dependencies]\nused.workspace = true\n' >>"$ws/crates/app/Cargo.toml"
cat >"$ws/Cargo.toml" <<'TOML'
[workspace]
members = ["crates/app", "vendor/used", "vendor/orphan"]

[workspace.dependencies]
used = { path = "vendor/used" }
orphan = { path = "vendor/orphan" }
TOML
got="$(orphans "$ws/Cargo.toml" | wc -l)"
[ "$got" -eq 2 ] || fail "orphans fixture: want 2 orphans (member and key), got $got"
echo "fire  orphans: $got (vendor/orphan unused, key orphan unused)"

# The tree.
got="$(unpathed_deps Cargo.toml)"
[ -z "$got" ] || fail "dependencies outside the workspace and vendor/ (vendor a shim instead):
$got"
got="$(orphans Cargo.toml)"
[ -z "$got" ] || fail "orphaned shims or workspace dependencies (delete them):
$got"
for manifest in Cargo.toml crates/*/Cargo.toml; do
    awk '/^\[/ { on = ($0 == "[lints]") } on && /^workspace *= *true/ { found = 1 }
         END { exit !found }' "$manifest" ||
        fail "$manifest: missing \`[lints] workspace = true\`"
done
if grep -rnE '(allow|expect|warn)\(([^)]*, *)?unsafe_code' crates src examples; then
    fail "an unsafe_code escape outside the root tests/"
fi
echo "manifests: every dependency a path, no orphan, every member on the workspace lints"
echo "lint_stock: ok in $((SECONDS - start)) s"
