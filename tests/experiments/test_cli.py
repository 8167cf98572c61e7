"""CLI smoke tests (argument parsing + tiny executions)."""

from __future__ import annotations

import json

import pytest

import repro.experiments.figures as F
from repro.experiments.cli import build_parser, main


@pytest.fixture(autouse=True)
def micro_reduction(monkeypatch):
    monkeypatch.setattr(F, "REDUCED_NODE_FACTOR", 0.08)
    monkeypatch.setattr(F, "REDUCED_TIME_FACTOR", 0.04)
    monkeypatch.setattr(F, "REDUCED_COPIES", (16, 32))
    monkeypatch.setattr(F, "REDUCED_BUFFERS_MB", (2.0, 4.0))
    monkeypatch.setattr(F, "REDUCED_RATES", ((10.0, 15.0), (45.0, 50.0)))


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_run_command(capsys):
    assert main(["run", "--scenario", "rwp", "--policy", "fifo",
                 "--reduced"]) == 0
    out = capsys.readouterr().out
    assert "fifo" in out


def test_run_json_output(tmp_path, capsys):
    out_file = tmp_path / "run.json"
    assert main(["run", "--reduced", "--policy", "fifo",
                 "--json", str(out_file)]) == 0
    payload = json.loads(out_file.read_text())
    assert payload["policy"] == "fifo"
    assert "delivery_ratio" in payload


def test_fig4_command(capsys):
    assert main(["fig4"]) == 0
    out = capsys.readouterr().out
    assert "peaks at P(R)" in out


def test_fig3_command(capsys, monkeypatch):
    monkeypatch.setattr(F, "REDUCED_NODE_FACTOR", 0.2)
    monkeypatch.setattr(F, "REDUCED_TIME_FACTOR", 0.1)
    assert main(["fig3", "--scenario", "rwp"]) == 0
    out = capsys.readouterr().out
    assert "E(I)" in out


def test_fig8_command(capsys, tmp_path):
    out_file = tmp_path / "fig8.json"
    assert main(["fig8", "--axis", "copies", "--policies", "fifo",
                 "--workers", "1", "--json", str(out_file)]) == 0
    payload = json.loads(out_file.read_text())
    assert payload["figure"] == "fig8(a-c)"
    assert "fifo" in payload["series"]
    out = capsys.readouterr().out
    assert "delivery_ratio" in out


def test_fig9_command(capsys):
    assert main(["fig9", "--axis", "buffer", "--policies", "fifo",
                 "--workers", "1"]) == 0
    out = capsys.readouterr().out
    assert "fig9(d-f)" in out


def test_fig_validate_command(capsys, tmp_path):
    out_file = tmp_path / "validate.json"
    assert main(["fig-validate", "--policies", "fifo", "--workers", "1",
                 "--json", str(out_file)]) == 0
    payload = json.loads(out_file.read_text())
    assert payload["figure"] == "fig-validate(rwp/copies)"
    assert set(payload["series"]) == {"fifo", "analytic"}


def test_run_epfl_scenario(capsys):
    assert main(["run", "--scenario", "epfl", "--policy", "snw-c",
                 "--reduced"]) == 0
    assert "snw-c" in capsys.readouterr().out


def test_run_obs_outputs(capsys, tmp_path):
    obs_file = tmp_path / "metrics.json"
    trace_file = tmp_path / "trace.jsonl"
    assert main(["run", "--reduced", "--policy", "fifo",
                 "--obs-out", str(obs_file), "--obs-interval", "120",
                 "--trace", str(trace_file), "--profile"]) == 0
    out = capsys.readouterr().out

    from repro.obs.timeseries import read_timeseries_json
    payload = read_timeseries_json(obs_file)
    assert payload["interval"] == 120.0
    assert payload["samples"]["time"]

    from repro.obs.trace import aggregate_trace, read_trace_jsonl
    records = read_trace_jsonl(trace_file)
    assert aggregate_trace(records)["created"] > 0

    assert "phase" in out  # profiler table header
    assert "movement" in out


def test_run_obs_csv_export(tmp_path):
    obs_file = tmp_path / "metrics.csv"
    assert main(["run", "--reduced", "--policy", "fifo",
                 "--obs-out", str(obs_file)]) == 0
    header = obs_file.read_text().splitlines()[0]
    assert header.startswith("time,created,delivered")


def test_run_without_obs_flags_writes_nothing(tmp_path, capsys):
    assert main(["run", "--reduced", "--policy", "fifo"]) == 0
    assert "phase" not in capsys.readouterr().out
    assert list(tmp_path.iterdir()) == []


def test_run_with_churn(capsys, tmp_path):
    out_file = tmp_path / "churn.json"
    assert main(["run", "--reduced", "--policy", "fifo", "--churn", "0.4",
                 "--json", str(out_file)]) == 0
    payload = json.loads(out_file.read_text())
    assert payload["fault_node_down"] >= 1


def test_fig8_churn_axis(capsys, monkeypatch):
    monkeypatch.setattr(F, "REDUCED_CHURN", (0.0, 0.4))
    assert main(["fig8", "--axis", "churn", "--policies", "fifo",
                 "--workers", "1"]) == 0
    out = capsys.readouterr().out
    assert "fig8(churn)" in out
    assert "churned node fraction" in out


def test_fig8_resume_reuses_checkpointed_results(capsys, tmp_path, monkeypatch):
    # "Killed" sweep: only the 1-point grid got checkpointed.
    monkeypatch.setattr(F, "REDUCED_COPIES", (16,))
    ckpt = tmp_path / "sweep.jsonl"
    assert main(["fig8", "--axis", "copies", "--policies", "fifo",
                 "--workers", "1", "--resume", str(ckpt)]) == 0
    recorded = ckpt.read_text()
    assert recorded

    # Resume over the full grid vs. an uninterrupted fresh sweep.
    monkeypatch.setattr(F, "REDUCED_COPIES", (16, 32))
    resumed_json = tmp_path / "resumed.json"
    assert main(["fig8", "--axis", "copies", "--policies", "fifo",
                 "--workers", "1", "--resume", str(ckpt),
                 "--json", str(resumed_json)]) == 0
    fresh_json = tmp_path / "fresh.json"
    assert main(["fig8", "--axis", "copies", "--policies", "fifo",
                 "--workers", "1", "--json", str(fresh_json)]) == 0

    resumed = json.loads(resumed_json.read_text())
    fresh = json.loads(fresh_json.read_text())
    assert json.dumps(resumed["series"], sort_keys=True) == json.dumps(
        fresh["series"], sort_keys=True
    )
    # The checkpoint was appended to, never rewritten.
    assert ckpt.read_text().startswith(recorded)


def test_sweep_reports_failures_and_exits_nonzero(capsys, tmp_path,
                                                 monkeypatch):
    # Make every grid point fail at build time: the scenario factory now
    # demands a trace file that does not exist.
    import repro.experiments.scenario as S
    broken = S.random_waypoint_scenario().replace(
        mobility="trace", trace_path=str(tmp_path / "missing.txt")
    )
    monkeypatch.setitem(F.SCENARIOS, "rwp", ("fig8", lambda: broken))
    monkeypatch.setattr(F, "REDUCED_COPIES", (16,))
    assert main(["fig8", "--axis", "copies", "--policies", "fifo",
                 "--workers", "1", "--retries", "1"]) == 1
    out = capsys.readouterr().out
    assert "FAILED" in out
