"""Golden run summaries for every router under three buffer policies.

One fixed-seed reduced random-waypoint run per (router, policy) pair,
compared field by field against ``golden/router_policy_summaries.json``.
The TTL is a quarter of the horizon, so TTL purges really expire copies
and the expiry path is pinned along with scheduling and dropping.  A
routing or buffer change that alters any router's decisions (including
skipping work it believes cannot matter) moves a count here even when
every other test stays green.

The SDSRP family's other names (the oracle variants, the knapsack
variant and GBSD) are pinned the same way, on the Spray-and-Wait router
only, in ``golden/sdsrp_family_summaries.json``: they share SDSRP's
fleet-wide state, and the runner builds that state for each of them.

When a change is meant to move the numbers, regenerate with::

    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest \
        tests/experiments/test_router_policy_golden.py

and explain the behavioural change in the change log.
"""

from __future__ import annotations

import json
import math
import os
from pathlib import Path
from typing import Any

import pytest

from repro.experiments.figures import reduced
from repro.experiments.runner import run_scenario
from repro.experiments.scenario import (
    ROUTER_KINDS,
    ScenarioConfig,
    random_waypoint_scenario,
)

GOLDEN = Path(__file__).parent / "golden" / "router_policy_summaries.json"
POLICIES = ("sdsrp", "fifo", "random")
FAMILY_GOLDEN = Path(__file__).parent / "golden" / "sdsrp_family_summaries.json"
SDSRP_FAMILY = ("sdsrp-oracle", "sdsrp-knapsack", "gbsd", "gbsd-oracle")
SEED = 3


def config(router: str, policy: str) -> ScenarioConfig:
    base = reduced(random_waypoint_scenario(router=router, policy=policy, seed=SEED))
    return base.replace(ttl=base.sim_time / 4.0)


def comparable(value: Any) -> Any:
    """JSON-comparable form: tuples become lists, NaN becomes None."""
    if isinstance(value, float) and math.isnan(value):
        return None
    if isinstance(value, dict):
        return {key: comparable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [comparable(item) for item in value]
    return value


def summary_record(router: str, policy: str) -> dict[str, Any]:
    record = run_scenario(config(router, policy)).record()
    del record["wall_seconds"], record["profile"]
    return comparable(record)


def check_golden(path: Path, key: str, got: dict[str, Any]) -> None:
    if os.environ.get("REPRO_REGEN_GOLDEN"):
        stored = json.loads(path.read_text()) if path.exists() else {}
        stored[key] = got
        path.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n")
    assert got == json.loads(path.read_text())[key]


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("router", ROUTER_KINDS)
def test_summary_matches_golden(router: str, policy: str):
    check_golden(GOLDEN, f"{router}/{policy}", summary_record(router, policy))


@pytest.mark.parametrize("policy", SDSRP_FAMILY)
def test_sdsrp_family_matches_golden(policy: str):
    check_golden(FAMILY_GOLDEN, f"snw/{policy}", summary_record("snw", policy))


def test_golden_covers_every_pair_and_exercises_expiry():
    stored = json.loads(GOLDEN.read_text())
    assert set(stored) == {f"{r}/{p}" for r in ROUTER_KINDS for p in POLICIES}
    assert all(record["drops"].get("ttl", 0) > 0 for record in stored.values())


def test_family_golden_covers_every_name_and_exercises_expiry():
    stored = json.loads(FAMILY_GOLDEN.read_text())
    assert set(stored) == {f"snw/{p}" for p in SDSRP_FAMILY}
    assert all(record["drops"].get("ttl", 0) > 0 for record in stored.values())
