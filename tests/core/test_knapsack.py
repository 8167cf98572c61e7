"""Knapsack-based drop selection (the authors' EWSN companion strategy)."""

from __future__ import annotations

from repro.core.knapsack import KnapsackSdsrpPolicy
from repro.core.sdsrp import SdsrpShared
from repro.net.outcomes import ReceiveOutcome
from repro.units import megabytes
from tests.helpers import build_micro_world, make_message

ISOLATED = [(i * 900.0, 0.0) for i in range(10)]


def knapsack_world(buffer_bytes=megabytes(1.0)):
    shared = SdsrpShared.for_fleet(len(ISOLATED))

    def factory():
        return KnapsackSdsrpPolicy(shared)

    return build_micro_world(
        points=ISOLATED, policy_factory=factory,
        buffer_bytes=buffer_bytes, area=(10_000.0, 1_000.0),
    )


class TestSelectVictims:
    def test_keeps_highest_density_subset(self):
        mw = knapsack_world()
        policy = mw.router(0).policy
        # Two small strong messages + one big weak one; capacity forces a
        # choice.  Sizes differ, which is where knapsack beats ranking.
        strong_a = make_message(msg_id="a", size=300_000, copies=8,
                                initial_copies=16, created_at=0.0)
        strong_b = make_message(msg_id="b", size=300_000, copies=8,
                                initial_copies=16, created_at=0.0)
        weak_big = make_message(msg_id="w", size=700_000, copies=1,
                                initial_copies=16, created_at=-4000.0,
                                ttl=6000.0,
                                spray_times=[-4000.0, -3500.0, -3000.0,
                                             -2500.0])
        accept, victims = policy.select_victims(
            [strong_a, weak_big], strong_b, capacity=800_000, now=10.0
        )
        # Keeping both strong smalls beats keeping the weak big one.
        assert accept is True
        assert [v.msg_id for v in victims] == ["w"]

    def test_rejects_weak_newcomer(self):
        mw = knapsack_world()
        policy = mw.router(0).policy
        strong = make_message(msg_id="s", size=900_000, copies=8,
                              initial_copies=16, created_at=0.0)
        weak = make_message(msg_id="nw", size=900_000, copies=1,
                            initial_copies=16, created_at=-4000.0,
                            ttl=6000.0,
                            spray_times=[-4000.0, -3000.0, -2000.0])
        accept, victims = policy.select_victims(
            [strong], weak, capacity=1_000_000, now=10.0
        )
        assert accept is False
        assert victims == []


class TestRouterIntegration:
    def test_overflow_uses_knapsack_path(self):
        mw = knapsack_world(buffer_bytes=megabytes(1.0))
        mw.sim.run(until=1.0)
        r = mw.router(0)
        # Fill with a big stale message, then offer two fresh small ones.
        stale = make_message(msg_id="stale", source=1, destination=9,
                             size=megabytes(0.9), copies=1, initial_copies=16,
                             created_at=-4000.0, ttl=6000.0,
                             spray_times=[-4000.0, -3000.0, -2500.0])
        assert r.receive(stale, mw.nodes[1]) == ReceiveOutcome.ACCEPTED
        fresh = make_message(msg_id="fresh", source=1, destination=9,
                             size=megabytes(0.4), copies=8, initial_copies=16,
                             created_at=0.9)
        assert r.receive(fresh, mw.nodes[1]) == ReceiveOutcome.ACCEPTED
        assert "stale" not in mw.nodes[0].buffer
        assert "fresh" in mw.nodes[0].buffer

    def test_full_simulation_runs(self):
        from repro.experiments.runner import run_scenario
        from repro.experiments.scenario import random_waypoint_scenario, scale_scenario

        cfg = scale_scenario(
            random_waypoint_scenario(policy="sdsrp-knapsack", seed=2),
            node_factor=0.1, time_factor=0.05,
        )
        summary = run_scenario(cfg)
        assert summary.created > 0
