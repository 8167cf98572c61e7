#!/usr/bin/env python
"""Extending the library: write, register and evaluate a custom drop policy.

Implements "HYBRID", a policy that mixes the remaining-TTL ratio and the
copies ratio (the two baselines the paper compares) with a tunable weight,
registers it with the policy registry, and runs it through the same harness
as the built-in strategies — exactly what a downstream user exploring the
design space would do.

Run:  python examples/custom_policy.py
"""

from __future__ import annotations

import sys

from repro.experiments import random_waypoint_scenario, scale_scenario
from repro.experiments.figures import REDUCED_INTERVAL_FACTOR
from repro.experiments.sweep import replicate, run_many, summarize_replicates
from repro.net.message import Message
from repro.policies.base import StaticRankPolicy
from repro.policies.registry import available_policies, register_policy
from repro.reports.summary import FailedRun


class HybridPolicy(StaticRankPolicy):
    """priority = w * (R/TTL) + (1-w) * (C/C0)."""

    name = "hybrid"
    compare_newcomer = True

    def __init__(self, weight: float = 0.5) -> None:
        super().__init__()
        self.weight = float(weight)

    def priority(self, message: Message, now: float) -> float:
        ttl_ratio = message.remaining_ttl(now) / message.ttl
        copies_ratio = message.copies / message.initial_copies
        return self.weight * ttl_ratio + (1.0 - self.weight) * copies_ratio


def main() -> None:
    register_policy("hybrid", HybridPolicy)
    print("registered policies:", ", ".join(available_policies()))

    base = scale_scenario(
        random_waypoint_scenario(seed=2),
        node_factor=0.3,
        time_factor=0.25,
        interval_factor=REDUCED_INTERVAL_FACTOR,
    )

    print(f"\nscenario {base.name}: {base.n_nodes} nodes, "
          f"{base.sim_time:.0f} s\n")
    print(f"{'policy':<22}{'delivery':>10}{'hops':>8}{'overhead':>10}")
    rows: list[tuple[str, dict]] = []
    for policy, kwargs in [
        ("snw-o", {}),
        ("snw-c", {}),
        ("hybrid", {"weight": 0.25}),
        ("hybrid", {"weight": 0.5}),
        ("hybrid", {"weight": 0.75}),
        ("sdsrp", {}),
    ]:
        configs = replicate(
            base.replace(policy=policy, policy_kwargs=kwargs), 2
        )
        summaries = run_many(configs, workers=1)
        for summary in summaries:
            if isinstance(summary, FailedRun):  # not a smaller mean
                sys.exit(summary.traceback or summary.table_row())
        label = policy + (f"(w={kwargs['weight']})" if kwargs else "")
        print(
            f"{label:<22}"
            f"{summarize_replicates(summaries, 'delivery_ratio'):>10.3f}"
            f"{summarize_replicates(summaries, 'average_hopcount'):>8.2f}"
            f"{summarize_replicates(summaries, 'overhead_ratio'):>10.2f}"
        )
        rows.append((label, kwargs))

    print("\nThe linear blend cannot express the non-linear flip of the")
    print("paper's Fig. 2 — which is SDSRP's whole argument (Eq. 10 is a")
    print("non-linear function of C and R).")


if __name__ == "__main__":
    main()
