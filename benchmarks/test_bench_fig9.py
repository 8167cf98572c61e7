"""Fig. 9 (EPFL taxi trace, synthetic substitute): the three metric sweeps.

Same sweeps as Fig. 8 but under the hotspot-clustered taxi mobility standing
in for the CRAWDAD cabspotting data (DESIGN.md §1).  The fleet is reduced
more aggressively than the RWP scenario (200 -> 40 taxis) to keep the bench
runnable; L/N and congestion calibration follow the same rules.

The paper's Fig. 9 claims mirror Fig. 8 (SDSRP best delivery and overhead),
with one noted difference (Sec. IV-B-2): under taxi mobility SnW-C's
overhead *falls* as the generation interval grows, due to the aggregation
phenomenon — asserted below.
"""

from __future__ import annotations

import numpy as np
import pytest

from benchmarks.conftest import run_once
from repro.experiments.figures import PAPER_METRICS, metric_sweep

REPLICATES = 2
SEED = 8
NODE_FACTOR = 0.2  # 200 taxis -> 40


def _mean(data, policy, metric):
    return float(np.nanmean(data.series[policy][metric]))


def _assert_taxi_shape(data):
    """The robust cross-metric claims under taxi mobility."""
    overheads = {p: _mean(data, p, "overhead_ratio") for p in data.series}
    assert min(overheads, key=overheads.get) == "sdsrp", overheads
    deliveries = {p: _mean(data, p, "delivery_ratio") for p in data.series}
    top2 = sorted(deliveries, key=deliveries.get, reverse=True)[:2]
    assert "sdsrp" in top2, deliveries


def _print(data):
    for metric in PAPER_METRICS:
        print()
        print(data.metric_table(metric))


@pytest.mark.benchmark(group="fig9")
def test_fig9_copies_sweep(benchmark, record_figure):
    """Fig. 9(a-c): metrics vs initial copies L under taxi mobility."""
    data = run_once(
        benchmark,
        lambda: metric_sweep("epfl", "copies", replicates=REPLICATES,
                             workers=1, seed=SEED, node_factor=NODE_FACTOR),
    )
    _print(data)
    record_figure("fig9_copies", data.payload())
    _assert_taxi_shape(data)


@pytest.mark.benchmark(group="fig9")
def test_fig9_buffer_sweep(benchmark, record_figure):
    """Fig. 9(d-f): metrics vs buffer size under taxi mobility."""
    data = run_once(
        benchmark,
        lambda: metric_sweep("epfl", "buffer", replicates=REPLICATES,
                             workers=1, seed=SEED, node_factor=NODE_FACTOR),
    )
    _print(data)
    record_figure("fig9_buffer", data.payload())
    _assert_taxi_shape(data)
    for policy in data.series:
        series = data.series[policy]["delivery_ratio"]
        assert series[-1] > series[0], (policy, series)


@pytest.mark.benchmark(group="fig9")
def test_fig9_rate_sweep(benchmark, record_figure):
    """Fig. 9(g-i): metrics vs generation interval under taxi mobility."""
    data = run_once(
        benchmark,
        lambda: metric_sweep("epfl", "rate", replicates=REPLICATES,
                             workers=1, seed=SEED, node_factor=NODE_FACTOR),
    )
    _print(data)
    record_figure("fig9_rate", data.payload())
    _assert_taxi_shape(data)
    # Sec. IV-B-2: with aggregation, lower traffic cuts SnW-C's useless
    # forwardings — its overhead falls as the interval grows.
    snwc = data.series["snw-c"]["overhead_ratio"]
    assert snwc[-1] < snwc[0], snwc
