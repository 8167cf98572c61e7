"""Snapshot determinism: interrupted-and-restored runs replay exact bytes.

Extends the replay suite in :mod:`tests.obs.test_determinism` to the
checkpointing layer: a run snapshotted at time T, restored, and run to the
horizon must produce the *byte-identical* event trace and time series of the
uninterrupted run — under fault injection and the invariant sanitizer, on
both synthetic (RWP) and taxi mobility.  Also covers the crash-recovery
plumbing: ``_try_resume`` picking up a rolling snapshot file, and a killed
sweep worker resuming mid-run from its in-run snapshot under ``--resume``.
"""

from __future__ import annotations

import gzip
import json
import math

import pytest

from repro.engine.events import PRIORITY_SNAPSHOT
from repro.experiments.checkpoint import config_fingerprint
from repro.experiments.runner import (
    _try_resume,
    build_scenario,
    run_built,
    run_scenario,
    run_scenario_safe,
)
from repro.experiments.scenario import (
    ScenarioConfig,
    epfl_scenario,
    scale_scenario,
)
from repro.experiments.sweep import run_many
from repro.faults.plan import FaultPlan
from repro.reports.summary import RunSummary
from repro.snapshot import SnapshotError, read_snapshot, restore, save
from tests.obs.conftest import tiny_config
from tests.obs.test_determinism import CAPACITY, assert_identical


def observed(**overrides) -> ScenarioConfig:
    return tiny_config(obs_interval=30.0, trace_capacity=CAPACITY, **overrides)


def tiny_taxi(**overrides) -> ScenarioConfig:
    config = scale_scenario(epfl_scenario(), node_factor=0.05, time_factor=0.05)
    return config.replace(
        obs_interval=30.0, trace_capacity=CAPACITY, **overrides
    )


def faulted(config: ScenarioConfig) -> ScenarioConfig:
    duty = config.sim_time / 3.0
    return config.replace(sanitize=True, faults=FaultPlan(
        churn_fraction=0.3, churn_off_time=duty, churn_on_time=duty
    ))


def outputs(built) -> tuple[str, str]:
    assert built.trace is not None and built.timeseries is not None
    return (
        built.trace.to_jsonl(),
        json.dumps(built.timeseries.as_dict(), sort_keys=True),
    )


def stable(summary: RunSummary) -> dict:
    data = summary.record()
    data.pop("wall_seconds", None)
    return {
        k: ("nan" if isinstance(v, float) and math.isnan(v) else v)
        for k, v in data.items()
    }


def interrupted_vs_uninterrupted(config: ScenarioConfig):
    """Snapshot at mid-horizon, restore, run both legs to the end."""
    built = build_scenario(config)
    box: list = []
    built.sim.schedule_at(
        config.sim_time / 2.0,
        lambda: box.append(save(built)),
        priority=PRIORITY_SNAPSHOT,
    )
    baseline_summary = run_built(built)
    restored = restore(box[0])
    restored_summary = run_built(restored)
    return (built, baseline_summary), (restored, restored_summary)


class TestRestoredRunsAreByteIdentical:
    def test_rwp_with_faults_and_sanitizer(self):
        (base, base_sum), (rest, rest_sum) = interrupted_vs_uninterrupted(
            faulted(observed())
        )
        assert "fault.injected" in outputs(base)[0]
        assert_identical("rwp-restored", [outputs(base), outputs(rest)])
        assert stable(rest_sum) == stable(base_sum)

    def test_taxi_with_faults_and_sanitizer(self):
        (base, base_sum), (rest, rest_sum) = interrupted_vs_uninterrupted(
            faulted(tiny_taxi())
        )
        assert_identical("taxi-restored", [outputs(base), outputs(rest)])
        assert stable(rest_sum) == stable(base_sum)

    def test_periodic_snapshotter_is_observation_only(self, tmp_path):
        """A run with periodic capture+persist enabled replays the exact
        bytes of one without (the snapshotter must not perturb anything)."""
        plain = build_scenario(observed())
        plain_summary = run_built(plain)
        snapping = build_scenario(observed(
            snapshot_every=150.0, snapshot_to=str(tmp_path / "roll.snap.gz")
        ))
        snapping_summary = run_built(snapping)
        assert (tmp_path / "roll.snap.gz").exists()
        assert_identical(
            "observation-only", [outputs(plain), outputs(snapping)]
        )
        assert stable(snapping_summary) == stable(plain_summary)


class TestCrashRecovery:
    @staticmethod
    def _kill_mid_run(config: ScenarioConfig, at: float) -> None:
        built = build_scenario(config)

        def die() -> None:
            raise RuntimeError("simulated worker death")

        built.sim.schedule_at(at, die, priority=PRIORITY_SNAPSHOT)
        with pytest.raises(RuntimeError, match="worker death"):
            run_built(built)

    def test_run_scenario_safe_resumes_from_rolling_snapshot(self, tmp_path):
        path = tmp_path / "roll.snap.gz"
        config = observed(snapshot_every=150.0, snapshot_to=str(path))
        baseline = run_scenario(config)

        path.unlink()  # pristine state for the killed attempt
        self._kill_mid_run(config, at=451.0)
        assert path.exists(), "killed run left no rolling snapshot"
        resumed_built = _try_resume(config)
        assert resumed_built is not None
        assert resumed_built.sim.now == pytest.approx(450.0)

        result = run_scenario_safe(config)
        assert isinstance(result, RunSummary)
        assert stable(result) == stable(baseline)
        assert not path.exists(), "snapshot not consumed after success"

    def test_stale_snapshot_for_another_config_is_ignored(self, tmp_path):
        path = tmp_path / "roll.snap.gz"
        config = observed(snapshot_every=150.0, snapshot_to=str(path))
        self._kill_mid_run(config, at=451.0)
        # Same file, different scenario (the retry-with-fresh-seed case).
        assert _try_resume(config.replace(seed=config.seed + 1)) is None

    def test_version_1_snapshot_is_refused_and_the_run_starts_fresh(
        self, tmp_path
    ):
        """A rolling file from before schema 2 is refused outright (its
        config encoding is not this build's); the safe runner then starts
        from t=0 instead of resuming."""
        path = tmp_path / "roll.snap.gz"
        config = observed(snapshot_every=150.0, snapshot_to=str(path))
        baseline = run_scenario(config)
        self._kill_mid_run(config, at=451.0)
        doc = json.loads(gzip.decompress(path.read_bytes()))
        doc["version"] = 1
        path.write_bytes(gzip.compress(json.dumps(doc).encode("utf-8")))

        with pytest.raises(SnapshotError, match="schema version 1"):
            read_snapshot(path)
        assert _try_resume(config) is None
        result = run_scenario_safe(config)
        assert isinstance(result, RunSummary)
        assert stable(result) == stable(baseline)
        assert not path.exists(), "stale snapshot not replaced and consumed"

    def test_killed_sweep_worker_resumes_under_resume(self, tmp_path):
        """Acceptance: a sweep item killed mid-run resumes from its in-run
        snapshot when the sweep re-runs with ``--resume``."""
        ckpt = tmp_path / "sweep.jsonl"
        configs = [observed(seed=s, snapshot_every=150.0) for s in (5, 6)]
        uninterrupted = run_many(configs, workers=1)

        # Simulate the killed worker: run item 0 by hand against the sweep's
        # derived per-item snapshot path and die mid-run.
        derived = (
            ckpt.parent
            / (ckpt.name + ".snap")
            / f"{config_fingerprint(configs[0])}.snap.gz"
        )
        self._kill_mid_run(
            configs[0].replace(snapshot_to=str(derived)), at=451.0
        )
        assert derived.exists(), "killed item left no in-run snapshot"

        resumed = run_many(configs, workers=1, checkpoint=str(ckpt))
        assert [stable(r) for r in resumed] == [
            stable(r) for r in uninterrupted
        ]
        assert not derived.exists(), "in-run snapshot not consumed on success"
