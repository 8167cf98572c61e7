"""TimeSeriesCollector: sampling cadence, exports, parse validation."""

from __future__ import annotations

import csv
import json

import pytest

from repro.errors import ConfigurationError, ObsFormatError
from repro.experiments.runner import build_scenario, run_built
from repro.net.outcomes import DROP_REASONS
from repro.obs.timeseries import Histogram, TimeSeriesCollector, read_timeseries_json
from repro.reports.metrics import MetricsCollector
from tests.obs.conftest import tiny_config


def sampled_run(**overrides):
    built = build_scenario(tiny_config(obs_interval=60.0, **overrides))
    summary = run_built(built)
    assert built.timeseries is not None
    return built, summary


class TestHistogram:
    def test_binning_and_mean(self):
        hist = Histogram((1.0, 10.0))
        for value in (0.5, 1.0, 5.0, 100.0):
            hist.add(value)
        assert hist.counts == [2, 1, 1]  # (<=1], (1,10], (10,inf)
        assert hist.n == 4
        assert hist.mean == pytest.approx(106.5 / 4)

    def test_empty_mean_is_zero(self):
        assert Histogram((1.0,)).mean == 0.0

    def test_rejects_bad_edges(self):
        with pytest.raises(ConfigurationError):
            Histogram(())
        with pytest.raises(ConfigurationError):
            Histogram((2.0, 1.0))


class TestSampling:
    def test_cadence_and_final_sample(self):
        built, _ = sampled_run()
        ts = built.timeseries
        times = ts.series("time")
        horizon = built.config.sim_time
        # One sample per interval from t=0, plus the finalize() row if the
        # horizon is off-cadence.
        assert times[0] == 0.0
        assert times[-1] == pytest.approx(horizon)
        deltas = [b - a for a, b in zip(times, times[1:])]
        assert all(d > 0 for d in deltas)
        assert max(deltas) <= 60.0 + 1e-9

    def test_counters_match_run_summary(self):
        built, summary = sampled_run()
        ts = built.timeseries
        assert ts.series("created")[-1] == summary.created
        assert ts.series("delivered")[-1] == summary.delivered
        assert ts.series("relayed")[-1] == summary.relayed
        assert ts.series("delivery_ratio")[-1] == pytest.approx(
            summary.delivery_ratio
        )
        drops_total = ts.series("drops_total")[-1]
        assert drops_total == sum(summary.drops.values())
        for reason in DROP_REASONS:
            assert ts.series(f"drop_{reason}")[-1] == summary.drops.get(reason, 0)

    def test_counters_are_monotone(self):
        built, _ = sampled_run()
        ts = built.timeseries
        for column in ("created", "delivered", "relayed", "drops_total",
                       "bytes_relayed", "transfers_started"):
            series = ts.series(column)
            assert all(b >= a for a, b in zip(series, series[1:])), column

    def test_gauges_are_bounded(self):
        built, _ = sampled_run()
        ts = built.timeseries
        for row in ts.series("occupancy_mean"):
            assert 0.0 <= row <= 1.0
        for row in ts.series("occupancy_max"):
            assert 0.0 <= row <= 1.0
        assert max(ts.series("live_messages")) > 0

    def test_finalize_is_idempotent_on_cadence(self):
        built, _ = sampled_run()
        ts = built.timeseries
        n = ts.n_samples
        ts.finalize(ts.series("time")[-1])  # same instant: no extra row
        assert ts.n_samples == n

    def test_unknown_column_raises(self):
        built, _ = sampled_run()
        with pytest.raises(KeyError):
            built.timeseries.series("nope")

    def test_rejects_nonpositive_interval(self):
        with pytest.raises(ConfigurationError):
            TimeSeriesCollector([], MetricsCollector(), interval=0.0)


class TestExport:
    def test_json_round_trip(self, tmp_path):
        built, _ = sampled_run()
        ts = built.timeseries
        path = tmp_path / "obs.json"
        ts.write(path)
        payload = read_timeseries_json(path)
        assert payload == json.loads(
            json.dumps(ts.as_dict())
        )  # identical modulo JSON number canonicalization
        assert payload["columns"] == list(ts.column_names())
        assert len(payload["node_occupancy"]) == ts.n_samples

    def test_csv_round_trip(self, tmp_path):
        built, _ = sampled_run()
        ts = built.timeseries
        path = tmp_path / "obs.csv"
        ts.write(path)
        with path.open(newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == list(ts.column_names())
        assert len(rows) == 1 + ts.n_samples
        created_col = rows[0].index("created")
        assert float(rows[-1][created_col]) == built.metrics.created

    def test_read_rejects_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"columns": [', encoding="utf-8")
        with pytest.raises(ObsFormatError, match="malformed"):
            read_timeseries_json(path)

    def test_read_rejects_non_object(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("[1, 2]", encoding="utf-8")
        with pytest.raises(ObsFormatError, match="not a JSON object"):
            read_timeseries_json(path)

    def test_read_rejects_missing_keys(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"interval": 60}', encoding="utf-8")
        with pytest.raises(ObsFormatError, match="missing"):
            read_timeseries_json(path)

    def test_read_rejects_ragged_columns(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({
            "columns": ["time", "created"],
            "samples": {"time": [0.0, 60.0], "created": [1]},
        }), encoding="utf-8")
        with pytest.raises(ObsFormatError, match="ragged"):
            read_timeseries_json(path)
