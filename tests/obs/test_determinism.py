"""Determinism replay suite: seeded runs are byte-identical, everywhere.

The reproducibility contract is stronger than "same delivery ratio": the
same :class:`ScenarioConfig` (same seed) must yield a *byte-identical* event
trace and identical metric time series — run-to-run in one process, and
in-process vs. spawn workers.  A drift anywhere in the event
ordering, RNG stream usage or float arithmetic shows up here first, as a
trace diff instead of a mysteriously shifted figure.

On failure, set ``REPRO_OBS_ARTIFACT_DIR`` to keep the mismatching trace
dumps for offline diffing (CI uploads that directory as an artifact).
"""

from __future__ import annotations

import json
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

from repro.experiments.runner import build_scenario, run_built
from repro.experiments.scenario import ScenarioConfig
from tests.obs.conftest import tiny_config

#: Retain everything the tiny scenario emits (asserted: nothing evicted).
CAPACITY = 500_000


def observed_run(config: ScenarioConfig) -> tuple[str, str]:
    """One fully observed run -> (trace JSONL, time-series JSON) strings.

    Module-level (not a closure) so a process pool can pickle it into
    spawn workers.  Returning serialized strings makes the comparison
    byte-exact and keeps the IPC payload simple.
    """
    built = build_scenario(config.replace(
        obs_interval=60.0, trace_capacity=CAPACITY
    ))
    run_built(built)
    assert built.trace is not None and built.timeseries is not None
    assert built.trace.events_seen == len(built.trace)
    timeseries = json.dumps(built.timeseries.as_dict(), sort_keys=True)
    return built.trace.to_jsonl(), timeseries


def _dump_artifacts(name: str, runs: list[tuple[str, str]]) -> str:
    """Persist mismatching runs for CI artifact upload; returns a hint."""
    artifact_dir = os.environ.get("REPRO_OBS_ARTIFACT_DIR")
    if not artifact_dir:
        return "set REPRO_OBS_ARTIFACT_DIR to keep dumps"
    out = Path(artifact_dir)
    out.mkdir(parents=True, exist_ok=True)
    for i, (trace, timeseries) in enumerate(runs):
        (out / f"{name}-run{i}.trace.jsonl").write_text(
            trace, encoding="utf-8"
        )
        (out / f"{name}-run{i}.timeseries.json").write_text(
            timeseries, encoding="utf-8"
        )
    return f"dumps written to {out}"


def assert_identical(name: str, runs: list[tuple[str, str]]) -> None:
    first = runs[0]
    for i, run in enumerate(runs[1:], start=1):
        if run != first:
            hint = _dump_artifacts(name, runs)
            assert run[0] == first[0], f"{name}: trace differs (run {i}; {hint})"
            assert run[1] == first[1], (
                f"{name}: time series differs (run {i}; {hint})"
            )


class TestReplayDeterminism:
    def test_same_seed_same_process_is_byte_identical(self):
        config = tiny_config()
        runs = [observed_run(config) for _ in range(2)]
        assert runs[0][0], "trace must not be empty"
        assert_identical("same-process", runs)

    def test_different_seeds_actually_differ(self):
        """Guard against a trivially-passing suite (e.g. empty traces)."""
        a = observed_run(tiny_config(seed=1))
        b = observed_run(tiny_config(seed=2))
        assert a[0] != b[0]
        assert a[1] != b[1]

    def test_serial_vs_parallel_workers_identical(self):
        """Spawned workers replay the exact same bytes as in-process runs."""
        configs = [tiny_config(seed=seed) for seed in (1, 2)]
        serial = [observed_run(config) for config in configs]
        with ProcessPoolExecutor(
            max_workers=2, mp_context=multiprocessing.get_context("spawn")
        ) as pool:
            parallel = list(pool.map(observed_run, configs))
        for config, s_run, p_run in zip(configs, serial, parallel):
            assert_identical(f"seed{config.seed}-serial-vs-parallel",
                             [s_run, p_run])

    def test_faulted_run_is_deterministic(self):
        """Fault injection (its own RNG stream) replays byte-identically."""
        from repro.faults.plan import FaultPlan

        duty = 300.0
        config = tiny_config(faults=FaultPlan(
            churn_fraction=0.3, churn_off_time=duty, churn_on_time=duty
        ))
        runs = [observed_run(config) for _ in range(2)]
        assert "fault.injected" in runs[0][0]
        assert_identical("faulted", runs)
