"""The analytic backend's speed: a query's cost is flat in fleet size, and
it answers far faster than the simulator it stands in for."""

from __future__ import annotations

import pytest

from repro.analytic.runner import run_analytic
from repro.experiments.runner import run_scenario
from tests.analytic.util import analytic_config
from tests.helpers import best_of

#: Wall-time bound on one full analytic query of a million-node fleet.
MAX_QUERY_SECONDS_1M = 0.050


def fleet(n_nodes: int, **overrides):
    """The spray scenario at ~5 nodes/km² for *n_nodes* nodes."""
    side = 350.0 * float(n_nodes) ** 0.5
    return analytic_config(n_nodes=n_nodes, copies=16, area=(side, side),
                           **overrides)


@pytest.mark.parametrize("n_nodes", [1_000, 100_000, 1_000_000])
def test_a_query_at_any_fleet_size_delivers_a_ratio(n_nodes):
    assert 0.0 < run_analytic(fleet(n_nodes)).summary().delivery_ratio <= 1.0


def test_a_million_node_query_takes_under_50_ms():
    # The spray chain is truncated at 512 states and propagated by matrix
    # exponential, so the meeting rate, the delay model with its blocking
    # fixed point and the summary cost the same at any fleet size.
    config = fleet(1_000_000)
    seconds = best_of(lambda: run_analytic(config).summary())
    assert seconds < MAX_QUERY_SECONDS_1M, f"{seconds * 1e3:.1f} ms"


def test_analytic_beats_the_simulator_tenfold():
    # The ratio is what a sweep saves per grid point by switching engines.
    sim_s = best_of(lambda: run_scenario(fleet(20, engine_backend="scalar")),
                    repeats=2)
    analytic_s = best_of(lambda: run_scenario(fleet(20)))
    assert sim_s / analytic_s > 10.0
