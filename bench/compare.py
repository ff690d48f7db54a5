#!/usr/bin/env python3
"""Compare two sets of benchmark results, row by row.

    python3 bench/compare.py A1.json A2.json ... -- B1.json B2.json ...
                             [--claim METRIC@WORKLOAD]

``A`` is the parent, ``B`` the change; each file is a ``run.py --out``
result. Runs are grouped by (workload, size, traced); within a group
every metric with a bound in ``bench/catalogue.py`` gets one row with each
side's median and quartiles and a verdict:

``better``      every run of B reads better than every run of A
``ok``          B's median is not worse than A's by more than the bound
``unresolved``  the run-to-run spread (interquartile range over median,
                the wider side) exceeds the bound, so "unchanged" cannot
                be told from "worse"
``REGRESSION``  B's median is worse than A's by more than the bound

Metrics without a bound are listed with their medians as evidence. Exact
counts are compared for equality. A claimed row (``--claim``) is met only
if B wins at least nine tenths of the pairs (A_i, B_i), ties counting for
neither, and the medians differ by more than A's interquartile range.

Exit status is 1 on a regression, a higher ``failed_ratio`` or an unmet
claim, else 0.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import catalogue  # noqa: E402


def load(paths):
    groups = defaultdict(list)
    for path in paths:
        result = json.loads(Path(path).read_text())
        if result.get("schema") != catalogue.SCHEMA:
            raise SystemExit(
                f"{path}: schema {result.get('schema')!r}, "
                f"this compare.py reads {catalogue.SCHEMA!r}"
            )
        key = (result["workload"], result["size"], result["trace"])
        groups[key].append(result)
    return groups


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    first, median, third = statistics.quantiles(values, n=4)
    return first, median, third


def better(metric, a, b):
    return b < a if metric["better"] == "lower" else b > a


def verdict(metric, a_values, b_values):
    q1a, med_a, q3a = quartiles(a_values)
    q1b, med_b, q3b = quartiles(b_values)
    if all(better(metric, a, b) for a in a_values for b in b_values):
        return "better"
    spread = max((q3a - q1a) / med_a, (q3b - q1b) / med_b)
    if spread > metric["bound"]:
        return "unresolved"
    change = (med_b - med_a) / med_a
    worse_by = change if metric["better"] == "lower" else -change
    return "REGRESSION" if worse_by > metric["bound"] else "ok"


def values_of(results, name):
    return [
        r["metrics"][name]["value"] for r in results if name in r["metrics"]
    ]


def claim_met(metric, a_values, b_values):
    pairs = list(zip(a_values, b_values))
    wins = sum(1 for a, b in pairs if better(metric, a, b))
    q1, med_a, q3 = quartiles(a_values)
    _, med_b, _ = quartiles(b_values)
    met = (
        len(pairs) >= 10
        and wins >= 0.9 * len(pairs)
        and abs(med_b - med_a) > q3 - q1
    )
    print(
        f"claim {metric['name']}: B wins {wins} of {len(pairs)} pairs, "
        f"medians {med_a:.6g} -> {med_b:.6g}, A's IQR {q3 - q1:.3g}: "
        f"{'met' if met else 'NOT MET (needs >=10 pairs, >=9/10 wins, median gap > IQR)'}"
    )
    return met


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    claim = None
    if "--claim" in argv:
        at = argv.index("--claim")
        claim = tuple(argv[at + 1].split("@"))
        del argv[at:at + 2]
    if "--" not in argv:
        raise SystemExit(__doc__)
    split = argv.index("--")
    side_a, side_b = load(argv[:split]), load(argv[split + 1:])

    failed = False
    for key in sorted(set(side_a) & set(side_b), key=str):
        workload, size, traced = key
        a_runs, b_runs = side_a[key], side_b[key]
        print(
            f"\n{workload} (size {size:g}, {'traced' if traced else 'untraced'}; "
            f"{len(a_runs)} vs {len(b_runs)} runs)"
        )
        for metric in catalogue.END_TO_END + catalogue.PER_LAYER:
            name = metric["name"]
            a_values, b_values = values_of(a_runs, name), values_of(b_runs, name)
            if not a_values or not b_values:
                continue
            q1a, med_a, q3a = quartiles(a_values)
            q1b, med_b, q3b = quartiles(b_values)
            row = (
                f"  {name:44s} {med_a:12.6g} [{q1a:.6g}, {q3a:.6g}] -> "
                f"{med_b:12.6g} [{q1b:.6g}, {q3b:.6g}] {metric['unit']}"
            )
            if metric["bound"] is None or traced:
                print(row)
                continue
            outcome = verdict(metric, a_values, b_values)
            failed |= outcome == "REGRESSION"
            print(f"{row}  bound {metric['bound']:.0%}: {outcome}")
            if claim == (name, workload):
                failed |= not claim_met(metric, a_values, b_values)

        ratio_a = max(r["failed_ratio"] for r in a_runs)
        ratio_b = max(r["failed_ratio"] for r in b_runs)
        worse = ratio_b > ratio_a
        failed |= worse
        print(
            f"  {'failed_ratio':44s} {ratio_a:12.6g} -> {ratio_b:12.6g}  "
            f"{'HIGHER' if worse else 'ok'}"
        )
        by_seed = defaultdict(set)
        for r in a_runs + b_runs:
            by_seed[r["seed"]].add(json.dumps(r["counts"], sort_keys=True))
        moved = sorted(seed for seed, seen in by_seed.items() if len(seen) > 1)
        print(
            "  exact counts: "
            + (f"DIFFER at seed(s) {moved}" if moved else "identical per seed")
        )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
