"""Scenario runner: assembly, determinism, policy/router dispatch."""

from __future__ import annotations

import math

import pytest

from repro.core.knapsack import KnapsackSdsrpPolicy
from repro.core.sdsrp import SdsrpPolicy
from repro.errors import ConfigurationError
from repro.experiments.runner import build_scenario, run_scenario
from repro.experiments.scenario import (
    MOBILITY_KINDS,
    ROUTER_KINDS,
    random_waypoint_scenario,
    scale_scenario,
)
from repro.policies.fifo import FifoPolicy


def tiny(policy="fifo", **kw):
    """A seconds-scale scenario for runner tests."""
    cfg = scale_scenario(
        random_waypoint_scenario(policy=policy), node_factor=0.1,
        time_factor=0.05,
    )
    return cfg.replace(**kw) if kw else cfg


class TestBuild:
    def test_assembles_stack(self):
        built = build_scenario(tiny())
        assert len(built.nodes) == 10
        assert built.nodes[0].router is not None
        assert isinstance(built.nodes[0].router.policy, FifoPolicy)
        assert built.shared is None

    def test_sdsrp_gets_shared_state(self):
        built = build_scenario(tiny(policy="sdsrp"))
        assert built.shared is not None
        p0 = built.nodes[0].router.policy
        p1 = built.nodes[1].router.policy
        assert isinstance(p0, SdsrpPolicy)
        assert p0._estimator is p1._estimator is built.shared.estimator

    def test_sdsrp_oracle_wired(self):
        built = build_scenario(tiny(policy="sdsrp-oracle"))
        assert built.shared is not None and built.shared.oracle is not None

    def test_oracle_suffix_needs_an_sdsrp_family_policy(self):
        with pytest.raises(ConfigurationError):
            build_scenario(tiny(policy="fifo-oracle"))
        built = build_scenario(tiny(policy="sdsrp-knapsack-oracle"))
        assert isinstance(built.nodes[0].router.policy, KnapsackSdsrpPolicy)
        assert built.shared is not None and built.shared.oracle is not None

    def test_policy_kwargs_forwarded(self):
        cfg = tiny(policy="sdsrp", policy_kwargs={"taylor_terms": 4,
                                                  "priority_form": "taylor"})
        built = build_scenario(cfg)
        assert built.nodes[0].router.policy.params.taylor_terms == 4

    def test_bad_policy_kwargs_rejected(self):
        with pytest.raises(TypeError):
            build_scenario(tiny(policy="sdsrp",
                                policy_kwargs={"bogus_knob": 1}))

    @pytest.mark.parametrize("router", ROUTER_KINDS)
    def test_all_router_kinds_build(self, router):
        built = build_scenario(tiny(router=router))
        assert built.nodes[0].router is not None

    # "trace" needs a trace file: test_trace_mobility_node_count_checked.
    @pytest.mark.parametrize(
        "mobility", [kind for kind in MOBILITY_KINDS if kind != "trace"]
    )
    def test_all_mobility_kinds_build(self, mobility):
        built = build_scenario(tiny(mobility=mobility))
        assert built.world.mobility.n_nodes == 10

    def test_trace_mobility_node_count_checked(self, tmp_path):
        import numpy as np

        from repro.traces.format import write_movement_trace

        path = tmp_path / "two.txt"
        write_movement_trace(
            path, np.array([0.0, 10.0]), np.zeros((2, 2, 2))
        )
        with pytest.raises(ConfigurationError):
            build_scenario(tiny(mobility="trace", trace_path=str(path)))


class TestRun:
    def test_returns_populated_summary(self):
        summary = run_scenario(tiny())
        assert summary.created > 0
        assert 0.0 <= summary.delivery_ratio <= 1.0
        assert summary.contacts >= 0
        assert summary.wall_seconds > 0
        assert summary.policy == "fifo"

    def test_deterministic_given_seed(self):
        a = run_scenario(tiny(seed=11))
        b = run_scenario(tiny(seed=11))
        da, db = a.as_dict(), {**b.as_dict(), "wall_seconds": a.wall_seconds}
        assert da.keys() == db.keys()
        for key, va in da.items():
            vb = db[key]
            # NaN-safe: a tiny run can have no intermeeting samples at all,
            # making the (identical) means NaN on both sides.
            both_nan = (
                isinstance(va, float) and math.isnan(va)
                and isinstance(vb, float) and math.isnan(vb)
            )
            assert va == vb or both_nan, key

    def test_seed_changes_outcome(self):
        a = run_scenario(tiny(seed=11))
        b = run_scenario(tiny(seed=12))
        assert (
            a.created != b.created
            or a.delivered != b.delivered
            or a.relayed != b.relayed
        )
