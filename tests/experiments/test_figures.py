"""Figure generators: structure and tiny-scale sanity (not full figures —
``make results`` runs those, and test_paper_claims.py checks them)."""

from __future__ import annotations

import numpy as np
import pytest

import repro.experiments.figures as F
from repro.analysis.taylor import priority_curve
from repro.experiments.scenario import random_waypoint_scenario


@pytest.fixture()
def micro_reduction(monkeypatch):
    """Make the reduced scale truly tiny for unit-testing the plumbing."""
    monkeypatch.setattr(F, "REDUCED_NODE_FACTOR", 0.08)
    monkeypatch.setattr(F, "REDUCED_TIME_FACTOR", 0.04)
    monkeypatch.setattr(F, "REDUCED_COPIES", (16, 32))
    monkeypatch.setattr(F, "REDUCED_BUFFERS_MB", (2.0, 4.0))
    monkeypatch.setattr(F, "REDUCED_RATES", ((10.0, 15.0), (45.0, 50.0)))


class TestSweepStructure:
    def test_fig8_copies_structure(self, micro_reduction):
        data = F.metric_sweep("rwp", "copies", policies=("fifo", "snw-c"),
                              workers=1)
        assert data.figure == "fig8(a-c)"
        assert data.x_values == [16, 32]
        assert set(data.series) == {"fifo", "snw-c"}
        for metrics in data.series.values():
            assert set(metrics) == set(F.PAPER_METRICS)
            assert len(metrics["delivery_ratio"]) == 2

    def test_fig8_buffer_applies_buffer_bytes(self, micro_reduction):
        data = F.metric_sweep("rwp", "buffer", policies=("fifo",), workers=1)
        raws = data.raw["fifo"]
        assert raws[0][0].buffer_bytes == 2 * 1024 * 1024
        assert raws[1][0].buffer_bytes == 4 * 1024 * 1024

    def test_fig8_rate_scales_interval(self, micro_reduction):
        data = F.metric_sweep("rwp", "rate", policies=("fifo",), workers=1)
        lo0, hi0 = data.raw["fifo"][0][0].interval_range
        lo1, hi1 = data.raw["fifo"][1][0].interval_range
        assert lo1 / lo0 == pytest.approx(45.0 / 10.0)

    def test_copies_scaled_to_fleet(self, micro_reduction):
        data = F.metric_sweep("rwp", "copies", policies=("fifo",), workers=1)
        # 8 nodes (factor 0.08 of 100): L=16 -> ~1.28 -> >= 2.
        applied = data.raw["fifo"][0][0].initial_copies
        assert applied == max(2, round(16 * 0.08))

    def test_replicates_averaged(self, micro_reduction):
        data = F.metric_sweep("rwp", "copies", policies=("fifo",),
                              replicates=2, workers=1)
        assert len(data.raw["fifo"][0]) == 2

    def test_table_rendering(self, micro_reduction):
        data = F.metric_sweep("rwp", "copies", policies=("fifo",), workers=1)
        table = data.metric_table("delivery_ratio")
        assert "fifo" in table and "delivery_ratio" in table


class TestScenarioNames:
    """An unknown scenario name is refused, never run as the taxi preset."""

    @pytest.mark.parametrize("name", ["taxi", "RWP"])
    @pytest.mark.parametrize("generate", [
        lambda name: F.fig3_intermeeting(name),
        lambda name: F.metric_sweep(name, "copies", policies=("fifo",),
                                    workers=1),
        lambda name: F.fig_validate(name, policies=("fifo",), workers=1),
    ], ids=["fig3", "metric_sweep", "fig_validate"])
    def test_unknown_scenario_raises(self, micro_reduction, generate, name):
        with pytest.raises(ValueError, match="unknown scenario"):
            generate(name)


class TestFig3:
    def test_intermeeting_fit(self, micro_reduction, monkeypatch):
        # Tiny fleets produce few samples; enlarge slightly for a stable fit.
        monkeypatch.setattr(F, "REDUCED_NODE_FACTOR", 0.2)
        monkeypatch.setattr(F, "REDUCED_TIME_FACTOR", 0.15)
        fit, samples = F.fig3_intermeeting("rwp", seed=2)
        assert fit.n_samples == samples.size
        assert fit.mean > 0
        assert np.all(samples > 0)


class TestFig4:
    def test_curves(self):
        curves = priority_curve()
        peak = curves["p_r"][int(np.argmax(curves["ideal"]))]
        assert peak == pytest.approx(1 - 1 / np.e, abs=5e-3)
