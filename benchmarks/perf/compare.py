#!/usr/bin/env python3
"""Compare perf benchmark result files written by ``run.py --out``.

    python3 benchmarks/perf/compare.py A.json B.json [A2.json B2.json ...]

Files alternate between the two sides: A (the parent) first, then B (the
change), one pair per run of both; the runner alternates which side runs
first.  For every (workload, end-to-end metric) the script prints each
side's value (the median over its files of the reported value), the
quartiles of those values, the change of B's value against A's, A's
spread (interquartile range / median of its values) and a verdict, using
the bounds in BENCHMARK.json.  A single pair has no run-to-run spread, so
its verdict rests on the change alone.

``unresolved``  A's own spread (interquartile range / median) exceeds the
                bound, and not every B value beats every A value;
``worse``       B's median is worse than A's by more than the bound;
``better``      at least 10 pairs, B wins at least 9 in 10 of them, and
                B's median beats A's by more than A's spread;
``within``      anything else: no regression, and no gain claimed.

It also flags every count metric (unit ``count`` or ``ratio``) of the
traced runs that differs between the files: counts repeat exactly for a
given seed, so any difference is a change in the work done.

Exit code 1 if any verdict is ``worse``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parents[2]
#: Pairs needed before a gain may be claimed, and the share B must win.
MIN_PAIRS = 10
WIN_SHARE = 0.9
COUNT_UNITS = ("count", "ratio")


def quartiles(samples: list[float]) -> tuple[float, float, float]:
    median = statistics.median(samples)
    if len(samples) < 2:
        return median, median, median
    q1, _, q3 = statistics.quantiles(samples, n=4)
    return q1, median, q3


def verdict(
    a_values: list[float], b_values: list[float], better: str, bound: float,
) -> tuple[str, float, float | None]:
    """(verdict, B's change against A as a worsening share, A's spread).

    *a_values*/*b_values* hold one metric's value from each file, in pair
    order.  A single pair has no run-to-run spread (None).
    """
    sign = 1.0 if better == "lower" else -1.0
    a_q1, a_med, a_q3 = quartiles(a_values)
    worsening = sign * (statistics.median(b_values) - a_med) / a_med
    spread = (a_q3 - a_q1) / a_med if len(a_values) > 1 else None
    # With the sign applied, lower is better on every metric.
    b_dominates = max(sign * x for x in b_values) < min(sign * x for x in a_values)
    if spread is not None and spread > bound and not b_dominates:
        return "unresolved", worsening, spread
    if worsening > bound:
        return "worse", worsening, spread
    wins = sum(1 for a, b in zip(a_values, b_values) if sign * b < sign * a)
    pairs = len(a_values)
    if pairs >= MIN_PAIRS and wins >= WIN_SHARE * pairs and -worsening > spread:
        return "better", worsening, spread
    return "within", worsening, spread


def compare(files: list[dict[str, Any]], spec: dict[str, Any]) -> int:
    workloads = [
        name for name in files[0]["workloads"]
        if all(name in f["workloads"] for f in files)
    ]
    any_worse = False
    print(f"{len(files) // 2} pair(s); gains need >= {MIN_PAIRS} pairs")
    print(f"{'workload':<19} {'metric':<12} {'A value [q1, q3]':>30} "
          f"{'B value [q1, q3]':>30} {'change':>8} {'spread':>7} {'bound':>6} verdict")
    for name in workloads:
        for metric in spec["end_to_end"]:
            key = metric["name"]
            entries = [f["workloads"][name].get("end_to_end", {}).get(key) for f in files]
            if None in entries:
                continue
            a_values = [entry["value"] for entry in entries[0::2]]
            b_values = [entry["value"] for entry in entries[1::2]]
            result, worsening, spread = verdict(
                a_values, b_values, metric["better"], metric["bound"]
            )
            any_worse |= result == "worse"
            cells = ["{1:.6g} [{0:.6g}, {2:.6g}]".format(*quartiles(values))
                     for values in (a_values, b_values)]
            spread_cell = "n/a" if spread is None else f"{spread:.1%}"
            print(f"{name:<19} {key:<12} {cells[0]:>30} {cells[1]:>30} "
                  f"{worsening:>+8.1%} {spread_cell:>7} {metric['bound']:>6.0%} {result}")

    seeds = {f["provenance"]["seed"] for f in files}
    if len(seeds) > 1:
        print(f"seeds differ ({sorted(seeds)}): count metrics not compared")
        return 1 if any_worse else 0
    counts = [m["name"] for m in spec["per_layer"] if m["unit"] in COUNT_UNITS]
    changed = 0
    for name in workloads:
        layers = [f["workloads"][name].get("per_layer") for f in files]
        if None in layers:
            continue
        for key in counts:
            values = [layer[key]["value"] for layer in layers]
            if len(set(values)) > 1:
                changed += 1
                print(f"COUNT CHANGED {name} {key}: {values}")
    print(f"count metrics: {changed} changed")
    return 1 if any_worse else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("files", nargs="+", type=Path,
                        help="result files, alternating A B A B ...")
    args = parser.parse_args(argv)
    if len(args.files) % 2:
        parser.error("give result files in A B pairs")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    files = [json.loads(path.read_text()) for path in args.files]
    for path, data in zip(args.files, files):
        p = data["provenance"]
        print(f"{path}: sha {p['git_sha'][:12]} dirty={p['git_dirty']} "
              f"seed {p['seed']} python {p['python']} numpy {p['numpy']} "
              f"cpus {p['cpu_count']}")
    return compare(files, spec)


if __name__ == "__main__":
    sys.exit(main())
