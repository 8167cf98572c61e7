"""GBSD-style utility policy (related-work baseline)."""

from __future__ import annotations

import pytest

from repro.core.sdsrp import SdsrpShared
from repro.policies.gbsd import GbsdPolicy
from tests.helpers import build_micro_world, make_message

ISOLATED = [(i * 900.0, 0.0) for i in range(10)]


def gbsd_world():
    shared = SdsrpShared.for_fleet(len(ISOLATED))

    def factory():
        return GbsdPolicy(shared)

    return build_micro_world(points=ISOLATED, policy_factory=factory,
                             area=(10_000.0, 1_000.0))


def test_priority_ignores_copy_count():
    mw = gbsd_world()
    policy = mw.router(0).policy
    few = make_message(msg_id="few", copies=2, initial_copies=16,
                       created_at=0.0)
    many = make_message(msg_id="many", copies=16, initial_copies=16,
                        created_at=0.0)
    # Same R, same (empty) lineage: GBSD sees them as equal.
    assert policy.priority(few, 10.0) == pytest.approx(
        policy.priority(many, 10.0)
    )


def test_fresher_message_ranks_higher():
    mw = gbsd_world()
    policy = mw.router(0).policy
    fresh = make_message(msg_id="fresh", created_at=0.0, ttl=6000.0)
    stale = make_message(msg_id="stale", created_at=-5500.0, ttl=6000.0,
                         spray_times=[-5500.0, -5000.0])
    assert policy.priority(fresh, 10.0) > policy.priority(stale, 10.0)


def test_runs_with_epidemic_router():
    from repro.experiments.runner import run_scenario
    from repro.experiments.scenario import random_waypoint_scenario, scale_scenario

    cfg = scale_scenario(
        random_waypoint_scenario(policy="gbsd", router="epidemic", seed=2),
        node_factor=0.1, time_factor=0.05,
    )
    summary = run_scenario(cfg)
    assert summary.created > 0


def test_oracle_variant_builds():
    from repro.experiments.runner import build_scenario
    from repro.experiments.scenario import random_waypoint_scenario, scale_scenario

    cfg = scale_scenario(
        random_waypoint_scenario(policy="gbsd-oracle", router="epidemic",
                                 seed=2),
        node_factor=0.1, time_factor=0.05,
    )
    built = build_scenario(cfg)
    assert built.shared is not None and built.shared.oracle is not None
