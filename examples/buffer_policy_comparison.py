#!/usr/bin/env python
"""The paper's core experiment in miniature: four buffer policies head-to-head.

Reproduces the Fig. 8 comparison (delivery ratio / average hopcounts /
overhead ratio for FIFO, Spray-and-Wait-O, Spray-and-Wait-C and SDSRP) on a
reduced random-waypoint scenario with several replicate seeds, and prints
the mean of each metric per policy.

Run:  python examples/buffer_policy_comparison.py [--replicates N]
"""

from __future__ import annotations

import argparse
import sys

from repro.experiments import random_waypoint_scenario, scale_scenario
from repro.experiments.figures import PAPER_POLICIES, REDUCED_INTERVAL_FACTOR
from repro.experiments.sweep import replicate, run_many, summarize_replicates
from repro.reports.summary import FailedRun

METRICS = ("delivery_ratio", "average_hopcount", "overhead_ratio")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--replicates", type=int, default=3)
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--policies", nargs="+",
                        default=list(PAPER_POLICIES) + ["sdsrp-oracle"])
    args = parser.parse_args()

    base = scale_scenario(
        random_waypoint_scenario(seed=args.seed),
        node_factor=0.4,
        time_factor=1 / 3,
        interval_factor=REDUCED_INTERVAL_FACTOR,
    )
    print(f"scenario: {base.name} — {base.n_nodes} nodes, "
          f"{base.sim_time:.0f} s, L={base.initial_copies}, "
          f"{args.replicates} replicates per policy\n")

    header = f"{'policy':<14}" + "".join(f"{m:>20}" for m in METRICS)
    print(header)
    print("-" * len(header))
    for policy in args.policies:
        configs = replicate(base.replace(policy=policy), args.replicates)
        summaries = run_many(configs, workers=args.workers)
        for summary in summaries:
            if isinstance(summary, FailedRun):  # not a smaller mean
                sys.exit(summary.traceback or summary.table_row())
        row = f"{policy:<14}"
        for metric in METRICS:
            row += f"{summarize_replicates(summaries, metric):>20.3f}"
        print(row)

    print()
    print("Expected shape (paper Fig. 8): sdsrp has the highest delivery")
    print("ratio and the lowest overhead ratio; snw-c the lowest hopcounts;")
    print("plain Spray-and-Wait (fifo) the highest hopcounts.  sdsrp-oracle")
    print("replaces the distributed estimators with exact global knowledge")
    print("and bounds what the policy could achieve.")


if __name__ == "__main__":
    main()
