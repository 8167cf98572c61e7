"""Analytic backend vs the discrete simulators (ISSUE 9 satellite 1).

Each grid point runs the scalar simulator over a few seeds and compares
the seed-averaged delivery ratio and mean delay with the analytic
expectation for the *same* :class:`ScenarioConfig`.

Tolerance bands (documented in docs/analytic.md, measured over 3 seeds on
this exact grid):

=====================  ==================  =====================
regime                 |Δ delivery ratio|  relative delay error
=====================  ==================  =====================
uncongested sprays     <= 0.12 absolute    <= 0.30
congested buffers      <= 0.12 absolute    <= 0.50
=====================  ==================  =====================

The mean-field model is an expectation over mobility/traffic randomness —
a handful of seeds of a 10–40-node fleet carries real sampling noise, so
these bands are deliberately loose enough to be stable yet tight enough
that a broken rate estimate (factor-of-two meeting rate, wrong spread
dynamics, missing blocking) blows straight through them.
"""

from __future__ import annotations

import math
import statistics

import pytest

from repro.analytic.runner import run_analytic
from repro.experiments.runner import run_scenario
from repro.rng import derive_seed
from tests.analytic.util import analytic_config

SEEDS = tuple(derive_seed(1, "xval", s) for s in range(3))

#: (n_nodes, copies, buffer_msgs, ratio_tol, delay_tol)
GRID = (
    (10, 4, 40, 0.12, 0.30),
    (20, 8, 40, 0.12, 0.30),
    (40, 16, 40, 0.12, 0.30),
    # Congested: 6-message buffers force the blocking fixed point to bite.
    (20, 8, 6, 0.12, 0.50),
    # Degenerate spray: L=2 leans hardest on the direct-delivery tail.
    (20, 2, 40, 0.12, 0.30),
)


def _simulated(config):
    ratios, delays = [], []
    for seed in SEEDS:
        summary = run_scenario(
            config.replace(engine_backend="scalar", seed=seed)
        )
        ratios.append(summary.delivery_ratio)
        if not math.isnan(summary.average_latency):
            delays.append(summary.average_latency)
    return statistics.fmean(ratios), statistics.fmean(delays)


@pytest.mark.parametrize(
    "n_nodes,copies,buffer_msgs,ratio_tol,delay_tol",
    GRID,
    ids=lambda v: str(v),
)
def test_analytic_matches_scalar_simulator(
    n_nodes, copies, buffer_msgs, ratio_tol, delay_tol
):
    config = analytic_config(
        n_nodes=n_nodes, copies=copies, buffer_msgs=buffer_msgs
    )
    analytic = run_analytic(config)
    sim_ratio, sim_delay = _simulated(config)

    assert abs(analytic.delivery_ratio - sim_ratio) <= ratio_tol, (
        f"delivery ratio: analytic {analytic.delivery_ratio:.3f} vs "
        f"scalar {sim_ratio:.3f}"
    )
    assert abs(analytic.average_latency - sim_delay) <= delay_tol * sim_delay, (
        f"mean delay: analytic {analytic.average_latency:.0f}s vs "
        f"scalar {sim_delay:.0f}s"
    )


def test_analytic_reproduces_copies_trend():
    """The qualitative Spray-and-Wait law: a larger spray budget delivers
    no worse — the trend figures (fig-validate) rely on it."""
    ratios = [
        run_analytic(analytic_config(copies=copies)).delivery_ratio
        for copies in (2, 4, 8, 16)
    ]
    assert all(b >= a - 1e-9 for a, b in zip(ratios, ratios[1:]))
