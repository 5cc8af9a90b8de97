#!/usr/bin/env python3
"""Compare two result sets of benchmark/run.sh, metric by metric.

    python3 benchmark/compare.py PARENT.json CHANGE.json [--strict]
    python3 benchmark/compare.py --spread SET.json
    python3 benchmark/compare.py --baseline SET.json [SET.json ...]

For every workload x end-to-end metric it prints both medians with their
quartiles, the relative change (positive = worse), the bound from
BENCHMARK.json and a verdict:

    regressed    the change's median is worse than the parent's by more than
                 the bound
    unresolved   the run-to-run spread (quartile distance over median, the
                 wider of the two sets) exceeds the bound and the two sets'
                 ranges overlap: the runs cannot tell
    unchanged    neither of the above

It also checks what must repeat exactly between two sets of one commit run
on the same seeds: recall, precision, the printed-match digest, and every
*_allocs count. Exit status: 1 on any `regressed` or exact mismatch (with
--strict also on `unresolved`), else 0.

--spread prints, for one set, each metric's spread against its bound: the
benchmark is steady enough when every spread is below a third of the bound.

--baseline prints, as JSON, the median of every end-to-end and per-layer
metric per workload over all runs of the given sets.
"""

import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load_contract():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        return json.load(f)


def load_set(path):
    with open(path) as f:
        return json.load(f)


def quartiles(values):
    """(q1, median, q3) the way the driver takes them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Quartile distance as a share of the median."""
    q1, _, q3 = quartiles(values)
    med = statistics.median(values)
    return abs(q3 - q1) / abs(med) if med else float("inf")


def by_workload(result_set, trace):
    """workload -> list of run records with the given trace flag."""
    out = {}
    for run in result_set["runs"]:
        if run["trace"] == trace:
            out.setdefault(run["workload"], []).append(run)
    return out


def values_of(runs, metric):
    return [r["metrics"][metric]["value"] for r in runs if metric in r["metrics"]]


def verdict(parent, change, better, bound):
    """(status, worse_by, spread) for one workload x metric."""
    pm, cm = statistics.median(parent), statistics.median(change)
    worse_by = (cm - pm) / abs(pm) if better == "lower" else (pm - cm) / abs(pm)
    wide = max(spread(parent), spread(change))
    overlap = min(parent) <= max(change) and min(change) <= max(parent)
    if wide > bound and overlap:
        return "unresolved", worse_by, wide
    if worse_by > bound:
        return "regressed", worse_by, wide
    return "unchanged", worse_by, wide


def fmt(x):
    return f"{x:.6g}"


def exact_mismatches(parent_set, change_set):
    """Values that must be bit-equal between two sets of one commit."""
    problems = []
    for trace in (0, 1):
        a, b = by_workload(parent_set, trace), by_workload(change_set, trace)
        for workload in a:
            change_by_seed = {r["seed"]: r for r in b.get(workload, [])}
            for run in a[workload]:
                other = change_by_seed.get(run["seed"])
                if other is None:
                    continue
                names = ["recall", "precision"] if trace == 0 else [
                    m for m in run["metrics"] if m.endswith("_allocs")
                ]
                # Worker threads allocate scratch on their own schedule: the
                # one multi-threaded span is exempt.
                if workload == "batch_dirty":
                    names = [m for m in names if m != "metablocking.run_allocs"]
                for m in names:
                    va = run["metrics"].get(m, {}).get("value")
                    vb = other["metrics"].get(m, {}).get("value")
                    if va != vb:
                        problems.append(f"{workload} seed {run['seed']} {m}: {va} != {vb}")
                da, db = run.get("match_digest"), other.get("match_digest")
                if da != db:
                    problems.append(f"{workload} seed {run['seed']} match_digest: {da} != {db}")
    return problems


def compare(parent_path, change_path, strict):
    contract = load_contract()
    parent_set, change_set = load_set(parent_path), load_set(change_path)
    a, b = by_workload(parent_set, 0), by_workload(change_set, 0)
    print(f"parent {parent_set.get('git_rev')}  change {change_set.get('git_rev')}")
    header = ("workload", "metric", "parent q1/med/q3", "change q1/med/q3", "worse by", "bound", "spread", "verdict")
    print("  ".join(header))
    counts = {"regressed": 0, "unresolved": 0, "unchanged": 0}
    for w in contract["workloads"]:
        workload = w["name"]
        for metric in contract["end_to_end"]:
            pv = values_of(a.get(workload, []), metric["name"])
            cv = values_of(b.get(workload, []), metric["name"])
            if not pv or not cv:
                print(f"{workload}  {metric['name']}  missing from one set")
                counts["unresolved"] += 1
                continue
            status, worse_by, wide = verdict(pv, cv, metric["better"], metric["bound"])
            counts[status] += 1
            pq = "/".join(fmt(x) for x in quartiles(pv))
            cq = "/".join(fmt(x) for x in quartiles(cv))
            print(
                f"{workload}  {metric['name']} [{metric['unit']}, {metric['better']} is better]  "
                f"{pq}  {cq}  {worse_by:+.2%}  {metric['bound']:.0%}  {wide:.2%}  {status}"
            )
    problems = exact_mismatches(parent_set, change_set)
    for p in problems:
        print(f"EXACT MISMATCH  {p}")
    print(
        f"{counts['regressed']} regressed, {counts['unresolved']} unresolved, "
        f"{counts['unchanged']} unchanged, {len(problems)} exact mismatches"
    )
    failed = counts["regressed"] or problems or (strict and counts["unresolved"])
    return 1 if failed else 0


def show_spread(path):
    contract = load_contract()
    runs = by_workload(load_set(path), 0)
    worst = 0.0
    print("workload  metric  n  median  spread  bound  spread/bound")
    for w in contract["workloads"]:
        for metric in contract["end_to_end"]:
            values = values_of(runs.get(w["name"], []), metric["name"])
            if len(values) < 2:
                print(f"{w['name']}  {metric['name']}  needs at least two runs")
                continue
            s = spread(values)
            ratio = s / metric["bound"]
            if metric["name"] != "setup_s":
                worst = max(worst, ratio)
            flag = "" if ratio < 1 / 3 else ("  <-- above a third" if ratio < 1 else "  <-- ABOVE THE BOUND")
            print(
                f"{w['name']}  {metric['name']}  {len(values)}  {fmt(statistics.median(values))}  "
                f"{s:.2%}  {metric['bound']:.0%}  {ratio:.2f}{flag}"
            )
    print(f"worst spread/bound (setup_s aside): {worst:.2f}")
    return 0 if worst < 1 else 1


def baseline(paths):
    contract = load_contract()
    sets = [load_set(p) for p in paths]
    out = {"git_rev": sets[0].get("git_rev"), "seconds": sets[0].get("seconds"), "workloads": {}}
    for w in contract["workloads"]:
        entry = {"end_to_end": {}, "per_layer": {}}
        for section, trace in (("end_to_end", 0), ("per_layer", 1)):
            runs = [r for s in sets for r in by_workload(s, trace).get(w["name"], [])]
            entry["runs_" + section] = len(runs)
            for metric in contract[section]:
                values = values_of(runs, metric["name"])
                if values and any(values):
                    entry[section][metric["name"]] = statistics.median(values)
        host = [r for s in sets for r in by_workload(s, 0).get(w["name"], [])][:1]
        for key in ("host_cores", "pinned_cpus", "threads", "world_entities", "descriptions"):
            if host and key in host[0]:
                entry[key] = host[0][key]
        out["workloads"][w["name"]] = entry
    json.dump(out, sys.stdout, indent=1)
    print()
    return 0


def main(argv):
    args = [a for a in argv if not a.startswith("--")]
    if "--spread" in argv and len(args) == 1:
        return show_spread(args[0])
    if "--baseline" in argv and args:
        return baseline(args)
    if len(args) == 2:
        return compare(args[0], args[1], "--strict" in argv)
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
