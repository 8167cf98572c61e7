"""Fig. 8 (random-waypoint): the paper's three metric sweeps.

Each benchmark regenerates one row of Fig. 8 at reduced scale (see
DESIGN.md §4 and EXPERIMENTS.md) and checks the *shape* claims the paper
makes:

* SDSRP: lowest overhead ratio at every sweep point; delivery ratio in the
  top two (its lead over plain SnW is within seed noise at reduced scale —
  the oracle ablation in test_bench_ablations.py shows the full gap);
* SnW-C: lowest average hopcounts;
* plain SnW (FIFO): highest average hopcounts;
* delivery rises with buffer size and with the generation interval.

Run with: pytest benchmarks/test_bench_fig8.py --benchmark-only
"""

from __future__ import annotations

import numpy as np
import pytest

from benchmarks.conftest import run_once
from repro.experiments.figures import PAPER_METRICS, metric_sweep

REPLICATES = 2
SEED = 8


def _mean(data, policy, metric):
    return float(np.nanmean(data.series[policy][metric]))


def _assert_paper_shape(data):
    # SDSRP: strictly lowest overhead, delivery in the top 2 on average.
    overheads = {p: _mean(data, p, "overhead_ratio") for p in data.series}
    assert min(overheads, key=overheads.get) == "sdsrp", overheads
    deliveries = {p: _mean(data, p, "delivery_ratio") for p in data.series}
    top2 = sorted(deliveries, key=deliveries.get, reverse=True)[:2]
    assert "sdsrp" in top2, deliveries
    # Hopcounts bracket: SnW-C lowest, plain SnW highest.
    hops = {p: _mean(data, p, "average_hopcount") for p in data.series}
    assert min(hops, key=hops.get) == "snw-c", hops
    assert max(hops, key=hops.get) == "fifo", hops


def _print(data):
    for metric in PAPER_METRICS:
        print()
        print(data.metric_table(metric))


@pytest.mark.benchmark(group="fig8")
def test_fig8_copies_sweep(benchmark, record_figure):
    """Fig. 8(a-c): metrics vs initial copies L."""
    data = run_once(
        benchmark,
        lambda: metric_sweep("rwp", "copies", replicates=REPLICATES,
                             workers=1, seed=SEED),
    )
    _print(data)
    record_figure("fig8_copies", data.payload())
    _assert_paper_shape(data)
    # Paper: SnW-O's delivery declines as L grows.
    snwo = data.series["snw-o"]["delivery_ratio"]
    assert snwo[-1] < snwo[0]
    # Paper: plain SnW's hopcount rises with L.
    fifo_hops = data.series["fifo"]["average_hopcount"]
    assert fifo_hops[-1] > fifo_hops[0]


@pytest.mark.benchmark(group="fig8")
def test_fig8_buffer_sweep(benchmark, record_figure):
    """Fig. 8(d-f): metrics vs buffer size."""
    data = run_once(
        benchmark,
        lambda: metric_sweep("rwp", "buffer", replicates=REPLICATES,
                             workers=1, seed=SEED),
    )
    _print(data)
    record_figure("fig8_buffer", data.payload())
    _assert_paper_shape(data)
    # Paper: delivery ratio rises with buffer size for every policy.
    for policy in data.series:
        series = data.series[policy]["delivery_ratio"]
        assert series[-1] > series[0], (policy, series)


@pytest.mark.benchmark(group="fig8")
def test_fig8_rate_sweep(benchmark, record_figure):
    """Fig. 8(g-i): metrics vs message generation interval."""
    data = run_once(
        benchmark,
        lambda: metric_sweep("rwp", "rate", replicates=REPLICATES,
                             workers=1, seed=SEED),
    )
    _print(data)
    record_figure("fig8_rate", data.payload())
    _assert_paper_shape(data)
    # Paper: less traffic (larger interval) -> higher delivery ratio.
    for policy in data.series:
        series = data.series[policy]["delivery_ratio"]
        assert series[-1] > series[0], (policy, series)
