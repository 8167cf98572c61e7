"""Shape-comparison utilities."""

from __future__ import annotations

import math

import pytest

from repro.analysis.comparison import dominates, policy_ranking
from repro.errors import ConfigurationError


class TestPolicyRanking:
    def test_orders_by_mean(self):
        series = {"a": [0.5, 0.5], "b": [0.9, 0.1], "c": [0.6, 0.6]}
        assert policy_ranking(series) == ["c", "b", "a"] or \
            policy_ranking(series)[0] == "c"

    def test_prefer_min(self):
        series = {"a": [10.0], "b": [5.0]}
        assert policy_ranking(series, prefer="min") == ["b", "a"]

    def test_nan_ignored(self):
        series = {"a": [math.nan, 0.4], "b": [0.3, 0.3]}
        assert policy_ranking(series)[0] == "a"

    def test_all_nan_ranks_last(self):
        series = {"a": [math.nan], "b": [0.1]}
        assert policy_ranking(series) == ["b", "a"]

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            policy_ranking({"a": [1.0]}, prefer="median")


class TestDominates:
    def test_pointwise_domination(self):
        assert dominates([3.0, 4.0], [2.0, 4.0])
        assert not dominates([3.0, 1.0], [2.0, 4.0])

    def test_prefer_min(self):
        assert dominates([1.0, 2.0], [1.5, 2.0], prefer="min")

    def test_nan_points_skipped(self):
        assert dominates([math.nan, 5.0], [9.0, 4.0])

    def test_real_bench_data_shape(self):
        """SDSRP's overhead dominance from the recorded benchmark run."""
        import json
        from pathlib import Path

        path = Path("benchmarks/results/bench_results.json")
        if not path.exists():
            pytest.skip("bench results not generated yet")
        data = json.loads(path.read_text())
        if "fig8_copies" not in data:
            pytest.skip("fig8 not in bench results")
        series = data["fig8_copies"]["series"]
        for rival in ("fifo", "snw-o", "snw-c"):
            assert dominates(
                series["sdsrp"]["overhead_ratio"],
                series[rival]["overhead_ratio"],
                prefer="min",
            ), rival
