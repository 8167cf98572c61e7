"""Golden regression tests for the figure pipelines.

Tiny fixed-seed sweeps through the real ``fig8``/``fig9`` code paths,
compared against committed expected outputs.  Any change to the simulator
core, RNG stream layout, routing/policy logic or sweep plumbing that moves a
number shows up here as a diff against the golden file — *before* anyone
burns hours on a full paper-scale regeneration.

When a change is intentional, regenerate with::

    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest \
        tests/experiments/test_golden_figures.py

and commit the updated files under ``tests/experiments/golden/`` together
with a note in the change log explaining the behavioural change.
"""

from __future__ import annotations

import json
import math
import os
from pathlib import Path

import pytest

from repro.experiments.figures import ANALYTIC_SERIES, fig_validate, metric_sweep

GOLDEN_DIR = Path(__file__).parent / "golden"

#: Small enough for seconds-scale CI, large enough to exercise congestion.
NODE_FACTOR = 0.12
TIME_FACTOR = 0.06
POLICIES = ("fifo", "sdsrp")
#: The figure sweeps also pin the paper's other two baselines, SnW-O and
#: SnW-C.
FIGURE_POLICIES = ("fifo", "snw-o", "snw-c", "sdsrp")
SEED = 1


def check_golden(name: str, payload: dict) -> None:
    path = GOLDEN_DIR / f"{name}.json"
    if os.environ.get("REPRO_REGEN_GOLDEN"):
        GOLDEN_DIR.mkdir(exist_ok=True)
        path.write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
    expected = json.loads(path.read_text(encoding="utf-8"))
    assert payload["figure"] == expected["figure"]
    assert payload["x_label"] == expected["x_label"]
    assert payload["x_values"] == expected["x_values"]
    assert set(payload["series"]) == set(expected["series"])
    for policy, metrics in expected["series"].items():
        for metric, values in metrics.items():
            got = payload["series"][policy][metric]
            assert len(got) == len(values), (policy, metric)
            for i, (g, e) in enumerate(zip(got, values)):
                if math.isnan(e):
                    assert math.isnan(g), (policy, metric, i)
                else:
                    # Tolerance covers float text round-trips only — the
                    # pipeline itself is deterministic.
                    assert g == pytest.approx(e, rel=1e-9, abs=1e-12), (
                        policy, metric, i
                    )


def test_fig8_copies_matches_golden():
    data = metric_sweep(
        "rwp", "copies", policies=FIGURE_POLICIES, replicates=1, workers=1,
        seed=SEED, node_factor=NODE_FACTOR, time_factor=TIME_FACTOR,
    )
    assert not data.failures
    check_golden("fig8_copies", data.payload())


def test_fig9_copies_matches_golden():
    data = metric_sweep(
        "epfl", "copies", policies=FIGURE_POLICIES, replicates=1, workers=1,
        seed=SEED, node_factor=NODE_FACTOR, time_factor=TIME_FACTOR,
    )
    assert not data.failures
    check_golden("fig9_copies", data.payload())


def test_fig_validate_copies_matches_golden():
    """The validation preset: simulated policy curves plus the analytic
    overlay, both pinned — a drift in *either* engine shows up here."""
    data = fig_validate(
        scenario="rwp", axis="copies", policies=POLICIES, replicates=1,
        workers=1, seed=SEED, node_factor=NODE_FACTOR,
        time_factor=TIME_FACTOR,
    )
    assert not data.failures
    assert ANALYTIC_SERIES in data.series
    check_golden("fig_validate_copies", data.payload())
