#!/usr/bin/env bash
# The one command of the MinoanER benchmark.
#
#   bash benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#       One run of one workload (what the driver calls, see BENCHMARK.json).
#       The last line of standard output is the result as one JSON object.
#
#   bash benchmark/run.sh [--smoke] [--seed N] [--seconds S] [--runs K] [--out FILE]
#       The whole suite: every workload K times untraced (seeds N … N+K-1),
#       each in a fresh process, then once traced; prints
#       `workload metric value unit` lines and writes one JSON result file
#       (default benchmark/results/<git rev>-<time>.json) for compare.py.
#       --smoke: tiny worlds, one second per run, every check still on, plus
#       the grep that keeps the harness off the APIs slated for deletion.
#
# Builds offline into $CARGO_TARGET_DIR (default benchmark/target) and reads
# and writes nothing outside the checkout.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
target="${CARGO_TARGET_DIR:-$here/target}"
case "$target" in /*) ;; *) target="$PWD/$target" ;; esac
export CARGO_TARGET_DIR="$target"

build() {
    cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" --bins
}

# The harness must not link what ROADMAP items B, C and E delete or replace.
api_surface_check() {
    local banned='probe::|legacy_|minoan[-_]store|minoan[-_]bench\b|streaming::|parallel::'
    if grep -nE "$banned" "$here"/src/*.rs "$here"/src/bin/*.rs "$here/Cargo.toml" \
        | grep -vE '^\S+:[0-9]+:\s*(//|#)'; then
        echo "run.sh: the harness names an API outside the surface rule (see README.md)" >&2
        return 1
    fi
}

workload="" seed=11 seconds="" trace=0 smoke="" runs=3 out=""
passthrough=()
while [ $# -gt 0 ]; do
    case "$1" in
        --workload) workload="$2"; shift 2 ;;
        --seed) seed="$2"; shift 2 ;;
        --seconds) seconds="$2"; shift 2 ;;
        --trace) trace="$2"; shift 2 ;;
        --runs) runs="$2"; shift 2 ;;
        --out) out="$2"; shift 2 ;;
        --smoke) smoke="--smoke"; shift ;;
        *) passthrough+=("$1"); shift ;;
    esac
done

tmp="$target/bench-tmp"
mkdir -p "$tmp"

# ---- one run: the driver's contract -----------------------------------------
if [ -n "$workload" ]; then
    build
    bin="$target/release/bench"
    [ "$trace" = "1" ] && bin="$target/release/bench-traced"
    exec "$bin" --workload "$workload" --seed "$seed" --seconds "${seconds:-15}" \
        --trace "$trace" --tmp-dir "$tmp" $smoke ${passthrough[@]+"${passthrough[@]}"}
fi

# ---- the suite ----------------------------------------------------------------
if [ -n "$smoke" ]; then
    api_surface_check
    seconds="${seconds:-1}"
    runs=1
fi
seconds="${seconds:-15}"
build

rev="$(git -C "$root" rev-parse --short=12 HEAD 2>/dev/null || echo unknown)"
stamp="$(date -u +%Y%m%dT%H%M%SZ)"
mkdir -p "$here/results"
out="${out:-$here/results/$rev-$stamp${smoke:+-smoke}.json}"
records="$tmp/records-$$"
mkdir -p "$records"
status=0
n=0

one() { # workload seed trace
    local record="$records/$n.json" extra=()
    n=$((n + 1))
    local bin="$target/release/bench"
    if [ "$3" = "1" ]; then
        bin="$target/release/bench-traced"
        extra=(--spans-out "${out%.json}-spans-$1.json")
    fi
    # pipefail: a failed run fails the pipeline although grep succeeds.
    if ! "$bin" --workload "$1" --seed "$2" --seconds "$seconds" --trace "$3" \
        --tmp-dir "$tmp" --result-out "$record" $smoke ${extra[@]+"${extra[@]}"} \
        | grep -v '^{'; then
        status=1
    fi
}

for w in batch_lod batch_dirty serve_hot serve_churn; do
    for ((r = 0; r < runs; r++)); do
        one "$w" $((seed + r)) 0
    done
    one "$w" "$seed" 1
done

{
    printf '{"git_rev": "%s", "date": "%s", "seed": %s, "seconds": %s, "runs_per_workload": %s, "smoke": %s,\n "runs": [\n' \
        "$rev" "$stamp" "$seed" "$seconds" "$runs" "$([ -n "$smoke" ] && echo true || echo false)"
    first=1
    for ((i = 0; i < n; i++)); do
        [ -f "$records/$i.json" ] || continue
        [ $first = 1 ] || printf ',\n'
        first=0
        cat "$records/$i.json"
    done
    printf '\n]}\n'
} >"$out"
rm -rf "$records"
echo "wrote $out"
exit $status
