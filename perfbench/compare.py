"""Compare two sets of benchmark runs, parent against change.

    python3 perfbench/compare.py PARENT CHANGE

PARENT and CHANGE are directories of run records (``.perfbench/results``
of two checkouts) or single record files; untraced runs are read.  Runs
pair up by seed, in the order they were made.  For each workload and each
end-to-end metric of BENCHMARK.json it prints each side's median and
quartiles over runs, the highest percentile with at least ten passes
beyond it over every pass of every run, the share of pairs the change won,
the spread, and a verdict.  The spread is the interquartile range over the
median of the pairs' change/parent ratios, which takes out what the seed
changes in the work; without two pairs it is the wider side's spread over
runs.

regressed   the change's median is worse than the parent's by more than
            the metric's bound, or the spread is larger than the bound and
            every change run is worse than every parent run;
improved    the change wins at least nine tenths of the pairs (ties count
            for neither) and its median is better by more than the
            parent's interquartile range;
unresolved  neither, and the spread is larger than the bound, unless every
            change run is better than every parent run;
unchanged   otherwise.

A gain does not count when the change fails more operations than the
parent; such a row says so.  The exit code is 1 when any row regressed.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

from run import ROOT, tail


def load(path: Path) -> dict[str, list[dict]]:
    """Untraced run records by workload, ordered by seed and then by time."""
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    records = [json.loads(f.read_text(encoding="utf-8")) for f in files]
    by_workload: dict[str, list[dict]] = defaultdict(list)
    for r in sorted(records, key=lambda r: (r["seed"], r["stamp"])):
        if r["trace"] == 0:
            by_workload[r["workload"]].append(r)
    return by_workload


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def pairs(parent: list[dict], change: list[dict], metric: str) -> list[tuple[float, float]]:
    by_seed: dict[int, list[list[float]]] = defaultdict(lambda: [[], []])
    for side, runs in enumerate((parent, change)):
        for r in runs:
            by_seed[r["seed"]][side].append(r["result"]["metrics"][metric]["value"])
    return [pair for p, c in by_seed.values() for pair in zip(p, c)]


def spread(values: list[float]) -> float:
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2)


def verdict(p: list[float], c: list[float], paired: list[tuple[float, float]], better: str,
            bound: float) -> tuple[str, float, float]:
    """(verdict, share of pairs won by the change, spread) by the rule in the module docstring."""
    sign = 1 if better == "lower" else -1
    pq1, pmed, pq3 = quartiles(p)
    cmed = statistics.median(c)
    won = sum(1 for a, b in paired if sign * (b - a) < 0) / len(paired) if paired else 0.0
    noise = spread([b / a for a, b in paired]) if len(paired) >= 2 else max(spread(p), spread(c))
    worse = sign * (cmed - pmed)
    every_run_worse = min(sign * x for x in c) > max(sign * x for x in p)
    every_run_better = max(sign * x for x in c) < min(sign * x for x in p)
    if worse > bound * abs(pmed) or (noise > bound and every_run_worse):
        return "regressed", won, noise
    if won >= 0.9 and -worse > pq3 - pq1:
        return "improved", won, noise
    if noise > bound and not every_run_better:
        return "unresolved", won, noise
    return "unchanged", won, noise


def main(argv: list[str]) -> int:
    if len(argv) != 3:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    parent, change = load(Path(argv[1])), load(Path(argv[2]))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    regressed = False
    print(f"{'workload':<14}{'metric':<13}{'parent median [q1, q3]':>30}{'change median [q1, q3]':>30}"
          f"{'won':>6}{'spread':>8}  verdict")
    for workload in sorted(set(parent) & set(change)):
        p_runs, c_runs = parent[workload], change[workload]
        p_failed = sum(r["result"]["failed"] for r in p_runs)
        c_failed = sum(r["result"]["failed"] for r in c_runs)
        for m in spec["end_to_end"]:
            name = m["name"]
            p = [r["result"]["metrics"][name]["value"] for r in p_runs]
            c = [r["result"]["metrics"][name]["value"] for r in c_runs]
            paired = pairs(p_runs, c_runs, name)
            result, won, noise = verdict(p, c, paired, m["better"], m["bound"])
            regressed |= result == "regressed"
            if result == "improved" and c_failed > p_failed:
                result += f" (not counted: {c_failed} failed operations against {p_failed})"
            sides = ["{1:.4f} [{0:.4f}, {2:.4f}]".format(*quartiles(v)) for v in (p, c)]
            won_text = f"{won:.0%}" if paired else "none"
            print(f"{workload:<14}{name:<13}{sides[0]:>30}{sides[1]:>30}{won_text:>6}{noise:>8.3f}  {result}")
            tails = [tail([x for r in runs for x in r["passes"][name]]) for runs in (p_runs, c_runs)]
            print(f"{'':<27}{len(p)} and {len(c)} runs; tail over passes: parent {tails[0]}, change {tails[1]}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
