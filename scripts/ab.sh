#!/usr/bin/env bash
# A/B timing of one benchmark workload: the working tree (the change)
# against a revision of this repository (the parent), by the protocol
# ROADMAP's standing constraints ask of every performance claim.
#
#   bash scripts/ab.sh --parent <rev> --workload W [--pairs 10] [--seconds S] [--seed N]
#                      [--claim METRIC] [--gate]
#
# A two-thread scaling probe — a fixed spin run once, then twice side by
# side — runs before every pair and is printed on the pair's line, so every
# recorded claim says whether the host's second CPU was real *while that
# pair was measured* (it comes and goes between consecutive pairs):
#
#   pair  3  seed 503  1.9 cores (one 80 ms, two 84 ms)  parent → change  …
#
# <rev> is exported into target/ab/parent-src, each side's frozen
# benchmark/ is built once into a target directory of its own, and the two
# `bench` binaries run `--pairs` times on seeds N, N+1, …, the side that
# goes first alternating. Every pair is printed as it finishes; the summary
# gives, per end-to-end metric of BENCHMARK.json, each side's q1/median/q3,
# the pairs the change won, and the gap between the medians against the
# parent's own quartile distance — over all pairs, and again for the pairs
# whose probe read under and over 1.5 cores when the host offered both.
#
# --claim METRIC prints whether the pairs bear out a gain on METRIC by the
# rule of the choosing-metrics guide: the change is better in at least nine
# tenths of the pairs (ties count for neither side) and its median is
# better than the parent's by more than the parent's quartile distance.
# --gate exits 1 when some end-to-end metric of BENCHMARK.json is worse in
# at least eight tenths of the pairs with its median pair ratio (change /
# parent) past the metric's bound — the regression rule of ROADMAP item S.
#
# Reads and writes nothing outside target/ab. `--parent HEAD` on a clean
# tree is an A/A run (CI does one pair of it so the script cannot rot).
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
parent="" workload="" pairs=10 seconds=5 seed=501 claim="" gate=0
while [ $# -gt 0 ]; do
    case "$1" in
        --parent) parent="$2"; shift 2 ;;
        --workload) workload="$2"; shift 2 ;;
        --pairs) pairs="$2"; shift 2 ;;
        --seconds) seconds="$2"; shift 2 ;;
        --seed) seed="$2"; shift 2 ;;
        --claim) claim="$2"; shift 2 ;;
        --gate) gate=1; shift ;;
        *) echo "ab.sh: unknown argument $1" >&2; exit 2 ;;
    esac
done
if [ -z "$parent" ] || [ -z "$workload" ]; then
    sed -n '2,9p' "${BASH_SOURCE[0]}" >&2
    exit 2
fi
end_to_end() { python3 -c 'import json, sys; print(*(m["name"] for m in json.load(open(sys.argv[1]))["end_to_end"]))' "$root/BENCHMARK.json"; }
if [ -n "$claim" ] && ! [[ " $(end_to_end) " == *" $claim "* ]]; then
    echo "ab.sh: --claim $claim: not an end-to-end metric of BENCHMARK.json ($(end_to_end))" >&2
    exit 2
fi

# ---- the scaling probe ----------------------------------------------------
spin() {
    local i
    for ((i = 0; i < 50000; i++)); do :; done
}
since_ms() { echo $((($(date +%s%N) - $1) / 1000000)); }
probe() { # sets $one, $two (ms) and $cores
    local t
    t="$(date +%s%N)"; spin; one="$(since_ms "$t")"
    t="$(date +%s%N)"; spin & spin & wait; two="$(since_ms "$t")"
    cores="$(awk "BEGIN { printf \"%.1f\", 2 * $one / ($two > 0 ? $two : 1) }")"
}

# ---- both sides, built once -------------------------------------------------
out="$root/target/ab"
rev="$(git -C "$root" rev-parse --short=12 "$parent^{commit}")"
rm -rf "$out/parent-src" "$out/runs"
mkdir -p "$out/parent-src" "$out/runs" "$out/tmp-parent" "$out/tmp-change"
git -C "$root" archive "$rev" | tar -x -C "$out/parent-src"
echo "parent $rev ($parent) vs change (working tree of $(git -C "$root" rev-parse --short=12 HEAD)), workload $workload, $pairs pairs of $seconds s, seeds $seed…$((seed + pairs - 1))"

src_of() { [ "$1" = parent ] && echo "$out/parent-src" || echo "$root"; }
for side in parent change; do
    CARGO_TARGET_DIR="$out/$side-target" cargo build --release --offline --quiet \
        --manifest-path "$(src_of "$side")/benchmark/Cargo.toml" --bins
done

# ---- the pairs ----------------------------------------------------------------
run() { # side pair-index
    (cd "$(src_of "$1")" && "$out/$1-target/release/bench" --workload "$workload" \
        --seed $((seed + $2)) --seconds "$seconds" --trace 0 --tmp-dir "$out/tmp-$1" \
        --result-out "$out/runs/$1-$2.json" >/dev/null)
}
op_ms() { sed -n 's/.*"op_p50_ms": {"value": \([0-9.eE+-]*\).*/\1/p' "$out/runs/$1-$2.json"; }
for ((i = 0; i < pairs; i++)); do
    if ((i % 2 == 0)); then order="parent change"; else order="change parent"; fi
    probe
    echo "$cores" >"$out/runs/probe-$i"
    for side in $order; do run "$side" "$i"; done
    printf 'pair %2d  seed %d  %s cores (one %d ms, two %d ms)  %-13s  op_p50_ms  parent %10.4g  change %10.4g\n' \
        $((i + 1)) $((seed + i)) "$cores" "$one" "$two" "${order/ / → }" \
        "$(op_ms parent "$i")" "$(op_ms change "$i")"
done

# ---- the summary ----------------------------------------------------------------
python3 - "$root/BENCHMARK.json" "$out/runs" "$pairs" "$claim" "$gate" <<'EOF'
import json, statistics, sys

contract, runs, pairs = sys.argv[1], sys.argv[2], int(sys.argv[3])
claim, gate = sys.argv[4], sys.argv[5] == "1"
with open(contract) as f:
    metrics = json.load(f)["end_to_end"]

def load(side, i):
    with open(f"{runs}/{side}-{i}.json") as f:
        return json.load(f)

sides = {side: [load(side, i) for i in range(pairs)] for side in ("parent", "change")}
cores = []
for i in range(pairs):
    with open(f"{runs}/probe-{i}") as f:
        cores.append(float(f.read()))

def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))

def compare(name, lower, which):
    """Wins, losses, both sides' quartiles and the median pair ratio."""
    p = [sides["parent"][i]["metrics"][name]["value"] for i in which]
    c = [sides["change"][i]["metrics"][name]["value"] for i in which]
    wins = sum((y < x) if lower else (y > x) for x, y in zip(p, c))
    losses = sum((y > x) if lower else (y < x) for x, y in zip(p, c))
    ratios = [y / x for x, y in zip(p, c) if x]
    ratio = statistics.median(ratios) if ratios else 1.0
    return wins, losses, quartiles(p), quartiles(c), ratio

def report(name, lower, which, label):
    wins, losses, (p1, pm, p3), (c1, cm, c3), ratio = compare(name, lower, which)
    print(f"  {label}")
    print(f"    parent q1/median/q3  {p1:.6g} / {pm:.6g} / {p3:.6g}")
    print(f"    change q1/median/q3  {c1:.6g} / {cm:.6g} / {c3:.6g}")
    print(f"    change better in {wins}/{len(which)} pairs, worse in {losses}; "
          f"median pair ratio {ratio:.3f}")
    print(f"    median gap {abs(cm - pm):.6g} vs parent IQR {p3 - p1:.6g}")

# The regimes the host offered: was the second CPU there for the pair?
everything = list(range(pairs))
under = [i for i in everything if cores[i] < 1.5]
over = [i for i in everything if cores[i] >= 1.5]
for m in metrics:
    name, lower = m["name"], m["better"] == "lower"
    print(f"{name} ({m['unit']}, {m['better']} is better)")
    report(name, lower, everything, f"all {pairs} pairs")
    if under and over:
        report(name, lower, under, f"{len(under)} pairs under 1.5 cores")
        report(name, lower, over, f"{len(over)} pairs at or over 1.5 cores")
for side, records in sides.items():
    failed = sum(r["failed"] for r in records)
    attempted = sum(r["attempted"] for r in records)
    wrong = sum(not r["correct"] for r in records)
    print(f"{side}: {failed} of {attempted} operations failed, {wrong} runs incorrect")

if claim:
    lower = next(m["better"] == "lower" for m in metrics if m["name"] == claim)
    wins, _, (p1, pm, p3), (_, cm, _), _ = compare(claim, lower, everything)
    gap = (pm - cm) if lower else (cm - pm)
    holds = wins * 10 >= 9 * pairs and gap > p3 - p1
    print(f"claim {claim}: {'holds' if holds else 'does not hold'} — change better in "
          f"{wins}/{pairs} pairs (needs nine tenths), median gap {gap:.6g} in its favour "
          f"vs parent IQR {p3 - p1:.6g}")
if gate:
    failing = []
    for m in metrics:
        if "bound" not in m:
            continue
        name, lower, bound = m["name"], m["better"] == "lower", m["bound"]
        _, losses, _, _, ratio = compare(name, lower, everything)
        past = ratio > 1 + bound if lower else ratio < 1 - bound
        verdict = "FAILS" if losses * 10 >= 8 * pairs and past else "passes"
        print(f"gate {name}: {verdict} — change worse in {losses}/{pairs} pairs, "
              f"median pair ratio {ratio:.3f} (bound {bound})")
        if verdict == "FAILS":
            failing.append(name)
    if failing:
        sys.exit(f"gate: {', '.join(failing)} regressed")
EOF
