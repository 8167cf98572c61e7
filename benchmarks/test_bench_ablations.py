"""Ablations of the SDSRP design choices (DESIGN.md §3).

Each benchmark runs the reduced Table-II scenario with one knob flipped and
prints the deltas, so the contribution of each mechanism is measurable:

* distributed estimators vs the global-knowledge oracle;
* Eq. 15 reference time (latest spray vs extrapolate-to-now);
* dropped-list rejection rule (own / any / off);
* closed-form priority (Eq. 10) vs Taylor truncations (Eq. 13);
* strict Algorithm-1 scheduling vs ONE's deliverable-first.
"""

from __future__ import annotations

import numpy as np
import pytest

from benchmarks.conftest import run_once
from repro.experiments import random_waypoint_scenario, scale_scenario
from repro.experiments.figures import REDUCED_INTERVAL_FACTOR
from repro.experiments.sweep import replicate, run_many, summarize_replicates
from repro.reports.summary import FailedRun

REPLICATES = 3
SEED = 8


def base_config(policy: str = "sdsrp", **kw):
    cfg = scale_scenario(
        random_waypoint_scenario(policy=policy, seed=SEED),
        node_factor=0.4,
        time_factor=1 / 3,
        interval_factor=REDUCED_INTERVAL_FACTOR,
    )
    return cfg.replace(**kw) if kw else cfg


def run_variant(config):
    summaries = run_many(replicate(config, REPLICATES), workers=1)
    for summary in summaries:
        if isinstance(summary, FailedRun):  # not a smaller mean
            pytest.fail(summary.traceback or summary.table_row())
    return {
        "delivery_ratio": summarize_replicates(summaries, "delivery_ratio"),
        "overhead_ratio": summarize_replicates(summaries, "overhead_ratio"),
        "average_hopcount": summarize_replicates(summaries, "average_hopcount"),
    }


def _print_rows(rows: dict[str, dict[str, float]]) -> None:
    print()
    print(f"{'variant':<26}{'delivery':>10}{'overhead':>10}{'hops':>8}")
    for label, row in rows.items():
        print(f"{label:<26}{row['delivery_ratio']:>10.3f}"
              f"{row['overhead_ratio']:>10.2f}"
              f"{row['average_hopcount']:>8.2f}")


@pytest.mark.benchmark(group="ablation")
def test_ablation_estimators(benchmark, record_figure):
    """Distributed estimation (the paper's contribution) vs oracle truth."""

    def work():
        return {
            "sdsrp (distributed)": run_variant(base_config("sdsrp")),
            "sdsrp (oracle)": run_variant(base_config("sdsrp-oracle")),
            "fifo (reference)": run_variant(base_config("fifo")),
        }

    rows = run_once(benchmark, work)
    _print_rows(rows)
    record_figure("ablation_estimators", rows)
    # Exact knowledge must not be worse than distributed estimates.
    assert (
        rows["sdsrp (oracle)"]["overhead_ratio"]
        <= rows["sdsrp (distributed)"]["overhead_ratio"]
    )
    # The oracle shows the policy's full delivery headroom over plain SnW.
    assert (
        rows["sdsrp (oracle)"]["delivery_ratio"]
        > rows["fifo (reference)"]["delivery_ratio"]
    )


@pytest.mark.benchmark(group="ablation")
def test_ablation_spray_tree_reference(benchmark, record_figure):
    """Eq. 15 reference: latest spray (paper) vs extrapolate-to-now."""

    def work():
        return {
            "ref = latest spray": run_variant(base_config("sdsrp")),
            "ref = now": run_variant(
                base_config("sdsrp",
                            policy_kwargs={"extrapolate_spray_tree": True})
            ),
        }

    rows = run_once(benchmark, work)
    _print_rows(rows)
    record_figure("ablation_spray_tree", rows)
    # Extrapolation saturates m-hat and collapses priorities to ties; the
    # paper-literal reference must not be worse on overhead.
    assert (
        rows["ref = latest spray"]["overhead_ratio"]
        <= rows["ref = now"]["overhead_ratio"] * 1.25
    )


@pytest.mark.benchmark(group="ablation")
def test_ablation_reject_rule(benchmark, record_figure):
    """Dropped-list rejection: own (paper) / any / off."""

    def work():
        return {
            f"reject = {rule}": run_variant(
                base_config("sdsrp", policy_kwargs={"reject_rule": rule})
            )
            for rule in ("own", "any", "off")
        }

    rows = run_once(benchmark, work)
    _print_rows(rows)
    record_figure("ablation_reject_rule", rows)
    # Rejecting re-infections must reduce relay overhead vs not rejecting.
    assert (
        rows["reject = own"]["overhead_ratio"]
        <= rows["reject = off"]["overhead_ratio"] * 1.1
    )


@pytest.mark.benchmark(group="ablation")
def test_ablation_taylor_terms(benchmark, record_figure):
    """Eq. 13 truncations vs the closed form (Eq. 10)."""

    def work():
        rows = {"closed form (Eq.10)": run_variant(base_config("sdsrp"))}
        for k in (1, 2, 8):
            rows[f"taylor k={k}"] = run_variant(
                base_config(
                    "sdsrp",
                    policy_kwargs={"priority_form": "taylor",
                                   "taylor_terms": k},
                )
            )
        return rows

    rows = run_once(benchmark, work)
    _print_rows(rows)
    record_figure("ablation_taylor", rows)
    values = np.array(
        [r["delivery_ratio"] for r in rows.values()], dtype=float
    )
    # All forms are rank-equivalent enough to land in one delivery band.
    assert values.max() - values.min() < 0.12


@pytest.mark.benchmark(group="ablation")
def test_ablation_scheduling_mode(benchmark, record_figure):
    """Strict Algorithm-1 priority order vs ONE's deliverable-first."""

    def work():
        return {
            "strict Algorithm 1": run_variant(base_config("sdsrp")),
            "deliverable-first": run_variant(
                base_config("sdsrp", deliverable_first=True)
            ),
            "fifo deliverable-first": run_variant(
                base_config("fifo", deliverable_first=True)
            ),
        }

    rows = run_once(benchmark, work)
    _print_rows(rows)
    record_figure("ablation_scheduling", rows)


@pytest.mark.benchmark(group="ablation")
def test_ablation_knapsack_mixed_sizes(benchmark, record_figure):
    """Knapsack victim selection vs single-victim ranking (mixed sizes).

    With the paper's fixed 0.5 MB messages the two coincide; with uniform
    0.2-0.8 MB messages the set-based selection can keep two small strong
    messages over one big weak one.
    """
    from repro.units import megabytes

    mixed = {"message_size_range": (megabytes(0.2), megabytes(0.8))}

    def work():
        return {
            "sdsrp (mixed sizes)": run_variant(base_config("sdsrp", **mixed)),
            "sdsrp-knapsack (mixed)": run_variant(
                base_config("sdsrp-knapsack", **mixed)
            ),
            "fifo (mixed sizes)": run_variant(base_config("fifo", **mixed)),
        }

    rows = run_once(benchmark, work)
    _print_rows(rows)
    record_figure("ablation_knapsack", rows)
    for row in rows.values():
        assert 0.0 <= row["delivery_ratio"] <= 1.0


@pytest.mark.benchmark(group="ablation")
def test_ablation_world_tick(benchmark, record_figure):
    """Time-step sensitivity: the paper's results must not hinge on the
    update granularity (ONE uses sub-second ticks; we default to 1 s)."""

    def work():
        return {
            f"tick = {tick}s": run_variant(base_config("sdsrp", tick=tick))
            for tick in (0.5, 1.0, 2.0)
        }

    rows = run_once(benchmark, work)
    _print_rows(rows)
    record_figure("ablation_tick", rows)
    values = [r["delivery_ratio"] for r in rows.values()]
    assert max(values) - min(values) < 0.08  # granularity-robust
