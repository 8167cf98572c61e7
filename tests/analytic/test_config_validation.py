"""The analytic validity envelope: loud rejection, never silent ignoring.

Covers every `_validate_analytic` clause, the `build_scenario` guard, and
clean runs at the envelope's edges: every modelled router x mobility pair
with one-message buffers, single- and 32-copy sprays, extreme TTLs and the
smallest fleet (malformed combinations surface as ConfigurationError at
construction, not as crashes mid-run)."""

from __future__ import annotations

import pytest

from repro.chaos.oracles import check_summary
from repro.errors import ConfigurationError
from repro.experiments.runner import (
    build_scenario,
    run_scenario,
    run_scenario_safe,
)
from repro.experiments.scenario import (
    ANALYTIC_MOBILITIES,
    ANALYTIC_ROUTERS,
    ENGINE_BACKENDS,
)
from repro.faults.plan import FaultPlan
from tests.analytic.util import analytic_config


class TestEnvelope:
    def test_backends_are_registered(self):
        assert ENGINE_BACKENDS == ("scalar", "analytic")
        analytic_config()  # constructs cleanly

    @pytest.mark.parametrize(
        "overrides",
        [
            {"router": "prophet"},
            {"router": "snf"},
            {"mobility": "stationary"},
            {"faults": FaultPlan(link_flap_rate=0.1)},
            {"sanitize": True},
            {"trace_capacity": 1024},
            {"snapshot_every": 100.0},
            {"profile": True},
        ],
        ids=lambda o: next(iter(o)),
    )
    def test_unsupported_features_rejected_at_construction(self, overrides):
        with pytest.raises(ConfigurationError):
            analytic_config(**overrides)

    def test_disabled_fault_plan_is_allowed(self):
        # A plan with nothing enabled changes no numbers; only *enabled*
        # fault machinery is out of envelope.
        config = analytic_config(faults=FaultPlan())
        assert config.faults is not None and not config.faults.enabled

    def test_supported_routers_and_mobilities(self):
        for router in ANALYTIC_ROUTERS:
            analytic_config(router=router)
        for mobility in ANALYTIC_MOBILITIES:
            if mobility == "taxi":
                continue  # needs the calibrated estimator; covered elsewhere
            analytic_config(mobility=mobility)


class TestRunnerGuards:
    def test_build_scenario_refuses_analytic_backends(self):
        with pytest.raises(ConfigurationError, match="run_scenario"):
            build_scenario(analytic_config())

    def test_run_scenario_safe_dispatches_without_snapshots(self):
        summary = run_scenario_safe(analytic_config())
        assert summary.created > 0


#: Envelope edges, each with one-message buffers: single- and 32-copy
#: sprays, a TTL shorter than a contact gap and an effectively infinite
#: one, and a 4-node fleet.
EDGES = {
    "L1-ttl30": {"buffer_msgs": 1, "copies": 1, "ttl": 30.0},
    "L32-ttl1e6": {"buffer_msgs": 1, "copies": 32, "ttl": 1.0e6},
    "4-nodes": {"buffer_msgs": 1, "copies": 32, "n_nodes": 4},
}
#: Taxi needs the calibrated estimator; covered elsewhere.
MOBILITIES = [m for m in ANALYTIC_MOBILITIES if m != "taxi"]


@pytest.mark.parametrize("edge", EDGES.values(), ids=EDGES.keys())
@pytest.mark.parametrize("mobility", MOBILITIES)
@pytest.mark.parametrize("router", ANALYTIC_ROUTERS)
def test_edges_run_clean(router, mobility, edge):
    summary = run_scenario(
        analytic_config(router=router, mobility=mobility, **edge)
    )
    assert check_summary(summary) is None
