"""PRoPHET delivery-predictability routing."""

from __future__ import annotations

import pytest

from repro.routing.prophet import ProphetRouter
from tests.helpers import build_micro_world, make_message

LINE = [(0.0, 0.0), (80.0, 0.0), (160.0, 0.0)]
ISOLATED = [(0.0, 0.0), (900.0, 0.0), (1800.0, 0.0)]


def prophet_world(points, **kw):
    return build_micro_world(points=points, router_factory=ProphetRouter, **kw)


class TestPredictabilityTable:
    def test_direct_update_on_encounter(self):
        mw = prophet_world([(0.0, 0.0), (50.0, 0.0)])
        mw.sim.run(until=2.0)
        r0 = mw.router(0)
        assert r0.predictability(1) > 0.7

    def test_repeated_encounters_increase(self):
        mw = prophet_world([(0.0, 0.0), (50.0, 0.0)])
        mw.sim.run(until=2.0)
        first = mw.router(0).predictability(1)
        # Simulate a re-encounter by calling the hook again.
        mw.router(0).on_link_up(mw.nodes[1], mw.sim.now)
        assert mw.router(0).predictability(1) > first

    def test_aging_decays(self):
        mw = prophet_world(ISOLATED, sim_time=5000.0)
        r0 = mw.router(0)
        r0._preds[2] = 0.8
        r0._last_aged = mw.sim.now
        mw.sim.run(until=2000.0)
        assert r0.predictability(2) < 0.8

    def test_transitivity(self):
        # 1 has met 2; when 0 *re-encounters* 1, it learns about 2
        # transitively (the initial simultaneous link-ups happen before 1
        # knows anything, so a second meeting is what spreads the info).
        mw = prophet_world(LINE)
        mw.sim.run(until=2.0)
        r0, r1 = mw.router(0), mw.router(1)
        assert r1.predictability(2) > 0.7
        r0.on_link_up(mw.nodes[1], mw.sim.now)
        assert r0.predictability(2) > 0.0
        assert r0.predictability(2) == pytest.approx(
            r0.predictability(1) * r1._preds[2] * 0.25, rel=0.2
        )


class TestForwarding:
    def test_copies_flow_toward_higher_predictability(self):
        mw = prophet_world(LINE)
        mw.sim.run(until=2.0)
        # Node 1 is adjacent to the destination 2 -> higher P(2) than node 0.
        mw.router(0).create_message(
            make_message(source=0, destination=2, size=1000)
        )
        mw.sim.run(until=60.0)
        assert mw.metrics.delivered == 1

    def test_no_forward_to_lower_predictability(self):
        mw = prophet_world(ISOLATED, sim_time=100.0)
        # No one has ever met node 2: predictabilities are all ~0, so the
        # copy must stay at the source.
        mw.router(0).create_message(
            make_message(source=0, destination=2, size=1000)
        )
        mw.sim.run()
        assert mw.metrics.relayed == 0

    def test_full_scenario_runs(self):
        from repro.experiments.runner import run_scenario
        from repro.experiments.scenario import random_waypoint_scenario, scale_scenario

        cfg = scale_scenario(
            random_waypoint_scenario(policy="fifo", router="prophet", seed=2),
            node_factor=0.12, time_factor=0.06,
        )
        summary = run_scenario(cfg)
        assert summary.created > 0
