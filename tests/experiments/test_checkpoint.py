"""The run store: fingerprints, resume semantics, one store for sweeps and
the service."""

from __future__ import annotations

import json
import math

from repro.experiments.checkpoint import RunStore, config_fingerprint
from repro.experiments.runner import run_scenario
from repro.experiments.scenario import random_waypoint_scenario, scale_scenario
from repro.experiments.sweep import run_many
from repro.reports.summary import FailedRun, RunSummary
from repro.service.api import ScenarioService


def tiny(**kw):
    cfg = scale_scenario(
        random_waypoint_scenario(policy="fifo"), node_factor=0.08,
        time_factor=0.04,
    )
    return cfg.replace(**kw) if kw else cfg


def broken(**kw):
    """Passes validation but dies in build_scenario (missing trace file)."""
    return tiny(mobility="trace", trace_path="/nonexistent/contacts.txt", **kw)


def stable(records):
    """Summary records with wall-clock timing and NaN identity normalized."""
    out = []
    for r in records:
        data = r.record()
        data.pop("wall_seconds", None)
        for key, value in data.items():
            if isinstance(value, float) and math.isnan(value):
                data[key] = "nan"  # NaN != NaN would fail equality checks
        out.append(data)
    return out


class TestFingerprint:
    def test_stable_across_equal_configs(self):
        assert config_fingerprint(tiny()) == config_fingerprint(tiny())

    def test_any_field_change_changes_it(self):
        base = config_fingerprint(tiny())
        assert config_fingerprint(tiny(seed=2)) != base
        assert config_fingerprint(tiny(policy="sdsrp")) != base


class TestPersistence:
    def test_summary_roundtrip_including_nan(self, tmp_path):
        cache = RunStore(tmp_path).cache
        summary = run_scenario(tiny())
        cache.put("k1", summary)
        loaded = cache.get("k1")
        assert isinstance(loaded, RunSummary)
        # json.dumps spells NaN one way; NaN != NaN would fail a plain ==.
        assert json.dumps(loaded.record()) == json.dumps(summary.record())

    def test_last_record_per_key_wins(self, tmp_path):
        # A config run twice (listed twice in one grid, say) is stored
        # twice; the later write is the one served.
        cache = RunStore(tmp_path).cache
        first, second = run_scenario(tiny()), run_scenario(tiny())
        cache.put("k1", first)
        cache.put("k1", second)
        assert json.dumps(cache.get("k1").record()) == json.dumps(
            second.record()
        )


class TestResumedSweeps:
    def test_resume_reuses_results_identically(self, tmp_path):
        configs = [tiny(seed=s) for s in (5, 6, 7)]
        uninterrupted = run_many(configs, workers=1)

        # "Killed" sweep: only the first two items got stored.
        path = tmp_path / "store"
        partial = run_many(configs[:2], workers=1, checkpoint=str(path))
        assert stable(partial) == stable(uninterrupted[:2])

        # Resume over the full grid: completed runs come from the store.
        resumed = run_many(configs, workers=1, checkpoint=str(path))
        assert stable(resumed) == stable(uninterrupted)
        # The reused entries are the stored records, not re-runs: their
        # recorded wall clocks match the stored ones exactly.
        cache = RunStore(path).cache
        for cfg, result in zip(configs[:2], resumed[:2]):
            hit = cache.get(config_fingerprint(cfg))
            assert json.dumps(hit.record()) == json.dumps(result.record())

    def test_resumed_failures_are_retried(self, tmp_path, monkeypatch):
        # A failure is never stored, so running the sweep again over the
        # same store runs the config again.
        import repro.experiments.sweep as sweep_module

        path = tmp_path / "store"
        cfg = tiny(seed=9)

        def flaky_disk(config):
            return FailedRun(
                config.name, config.policy, config.seed, "OSError",
                "flaky disk",
            )

        monkeypatch.setattr(sweep_module, "run_scenario_safe", flaky_disk)
        [failed] = run_many([cfg], workers=1, checkpoint=str(path))
        assert isinstance(failed, FailedRun)
        assert RunStore(path).cache.fingerprints() == []
        monkeypatch.undo()
        [result] = run_many([cfg], workers=1, checkpoint=str(path))
        assert isinstance(result, RunSummary)


class TestOneStoreTwoClients:
    """A sweep's ``checkpoint`` directory and a service root are one
    layout: either client serves what the other computed."""

    def test_the_service_serves_a_sweeps_store(self, tmp_path):
        cfg = tiny(seed=11)
        [swept] = run_many([cfg], workers=1, checkpoint=str(tmp_path))
        with ScenarioService(tmp_path) as service:
            ticket = service.submit(cfg)
            served = service.result(ticket.job_id)
        assert ticket.cached
        assert json.dumps(served.record()) == json.dumps(swept.record())

    def test_a_sweep_serves_a_services_store(self, tmp_path, monkeypatch):
        import repro.experiments.sweep as sweep_module

        cfg = tiny(seed=12)
        with ScenarioService(tmp_path) as service:
            ticket = service.submit(cfg)
            assert service.drain(max_wall=60.0)
            computed = service.result(ticket.job_id)

        def no_run(config):
            raise AssertionError(f"stored run computed again: {config.seed}")

        monkeypatch.setattr(sweep_module, "run_scenario_safe", no_run)
        [served] = run_many([cfg], workers=1, checkpoint=str(tmp_path))
        assert json.dumps(served.record()) == json.dumps(computed.record())


class TestFailureOrdering:
    def test_failed_runs_stay_in_input_order(self):
        configs = [tiny(seed=5), broken(seed=6), tiny(seed=7)]
        results = run_many(configs, workers=1)
        assert isinstance(results[0], RunSummary) and results[0].seed == 5
        assert isinstance(results[1], FailedRun) and results[1].seed == 6
        assert isinstance(results[2], RunSummary) and results[2].seed == 7

    def test_failed_runs_in_order_across_processes(self):
        configs = [tiny(seed=5), broken(seed=6), tiny(seed=7)]
        parallel = run_many(configs, workers=2)
        serial = run_many(configs, workers=1)
        assert stable(
            [r for r in parallel if isinstance(r, RunSummary)]
        ) == stable([r for r in serial if isinstance(r, RunSummary)])
        assert isinstance(parallel[1], FailedRun)
        assert parallel[1].error_type == serial[1].error_type

    def test_retries_keep_seed_and_count_attempts(self):
        config = broken(seed=4)
        [result] = run_many([config], workers=1, retries=2)
        assert isinstance(result, FailedRun)
        assert result.seed == config.seed
        assert result.attempts == 3
