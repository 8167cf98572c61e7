"""Observability must never change what it observes.

The whole ``repro.obs`` layer rides the listener bus read-only; these tests
enforce that property end-to-end: a run with every collector enabled yields
the *identical* RunSummary (modulo wall-clock diagnostics) as the same run
with observability off, and an invariant violation in a traced run carries
its trace context.
"""

from __future__ import annotations

import dataclasses
import math

import pytest

from repro.errors import InvariantViolation
from repro.experiments.runner import build_scenario, run_built, run_scenario
from tests.obs.conftest import tiny_config


def strip_diagnostics(summary):
    """Drop the fields that legitimately vary with observation (wall time).

    ``mean_intermeeting`` is NaN when no node pair met twice; NaN never
    compares equal, so canonicalize it for the dataclass equality below.
    """
    mi = summary.mean_intermeeting
    return dataclasses.replace(
        summary,
        wall_seconds=0.0,
        profile={},
        mean_intermeeting=-1.0 if math.isnan(mi) else mi,
    )


class TestObservationOnly:
    def test_full_observability_changes_nothing(self):
        """Metrics/trace/profiler on vs off: bit-identical outcomes."""
        plain = run_scenario(tiny_config())
        observed = run_scenario(tiny_config(
            obs_interval=30.0, trace_capacity=4096, profile=True
        ))
        assert strip_diagnostics(observed) == strip_diagnostics(plain)

    def test_observability_off_leaves_stack_unwired(self):
        built = build_scenario(tiny_config())
        assert built.timeseries is None
        assert built.trace is None
        assert built.profiler is None

    def test_profile_fills_summary_breakdown(self):
        summary = run_scenario(tiny_config(profile=True))
        assert set(summary.profile) >= {"movement", "contacts", "routing"}
        assert sum(summary.profile.values()) > 0
        flat = summary.as_dict()
        assert "profile_movement" in flat
        assert "profile" not in flat

    def test_unprofiled_summary_has_empty_profile(self):
        summary = run_scenario(tiny_config())
        assert summary.profile == {}


class TestTraceOnViolation:
    def corrupt_buffer(self, built):
        """Break buffer accounting mid-run so the sanitizer trips."""
        built.nodes[0].buffer._used += 1

    def test_invariant_violation_carries_trace_tail(self):
        config = tiny_config(sanitize=True, trace_capacity=4096)
        built = build_scenario(config)
        built.sim.schedule_at(
            built.config.sim_time / 2, self.corrupt_buffer, built
        )
        with pytest.raises(InvariantViolation) as excinfo:
            run_built(built)
        exc = excinfo.value
        assert exc.invariant == "buffer-accounting"
        assert exc.trace_tail, "traced run must attach trace context"
        assert len(exc.trace_tail) <= 50
        assert exc.trace_tail == built.trace.tail(50)
        for record in exc.trace_tail:
            assert "t" in record and "topic" in record

    def test_violation_without_trace_has_no_tail(self):
        config = tiny_config(sanitize=True)
        built = build_scenario(config)
        built.sim.schedule_at(
            built.config.sim_time / 2, self.corrupt_buffer, built
        )
        with pytest.raises(InvariantViolation) as excinfo:
            run_built(built)
        assert excinfo.value.trace_tail is None
