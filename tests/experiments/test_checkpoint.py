"""Sweep checkpoints: fingerprints, persistence, resume semantics."""

from __future__ import annotations

import json
import math

import pytest

from repro.experiments.checkpoint import SweepCheckpoint, config_fingerprint
from repro.experiments.runner import run_scenario
from repro.experiments.scenario import random_waypoint_scenario, scale_scenario
from repro.experiments.sweep import run_many
from repro.reports.summary import FailedRun, RunSummary


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
        path = tmp_path / "ckpt.jsonl"
        summary = run_scenario(tiny())
        assert math.isnan(summary.mean_intermeeting) or True  # either way
        SweepCheckpoint(path).record("k1", summary)
        loaded = SweepCheckpoint(path).completed("k1")
        assert isinstance(loaded, RunSummary)
        assert stable([loaded]) == stable([summary])

    def test_failed_runs_are_loaded_but_not_completed(self, tmp_path):
        path = tmp_path / "ckpt.jsonl"
        failure = FailedRun("s", "fifo", 1, "RuntimeError", "boom")
        SweepCheckpoint(path).record("k1", failure)
        ckpt = SweepCheckpoint(path)
        assert ckpt.completed("k1") is None  # resume must retry it
        assert ckpt.failed("k1") == failure

    def test_last_record_per_key_wins(self, tmp_path):
        path = tmp_path / "ckpt.jsonl"
        ckpt = SweepCheckpoint(path)
        ckpt.record("k1", FailedRun("s", "fifo", 1, "RuntimeError", "boom"))
        summary = run_scenario(tiny())
        ckpt.record("k1", summary)
        with pytest.warns(UserWarning, match="duplicate"):
            reloaded = SweepCheckpoint(path)
        assert reloaded.completed("k1") is not None
        assert reloaded.failed("k1") is None

    def test_torn_final_line_is_ignored(self, tmp_path):
        path = tmp_path / "ckpt.jsonl"
        SweepCheckpoint(path).record("k1", run_scenario(tiny()))
        with open(path, "a") as fh:
            fh.write('{"key": "k2", "kind": "summary", "data": {"sc')
        ckpt = SweepCheckpoint(path)
        assert len(ckpt) == 1
        assert ckpt.completed("k1") is not None
        assert ckpt.completed("k2") is None

    def test_torn_line_with_valid_json_but_bad_shape_is_ignored(self, tmp_path):
        # A crash can also tear a line into a *shorter valid JSON document*
        # (e.g. the data object closed early); from_record then raises
        # TypeError, which the loader must treat like any other torn line.
        path = tmp_path / "ckpt.jsonl"
        SweepCheckpoint(path).record("k1", run_scenario(tiny()))
        with open(path, "a") as fh:
            fh.write('{"key": "k2", "kind": "summary", "data": {}}\n')
            fh.write('{"key": "k3", "kind": "wat", "data": {}}\n')
        ckpt = SweepCheckpoint(path)
        assert len(ckpt) == 1
        assert ckpt.completed("k1") is not None
        assert ckpt.completed("k2") is None

    def test_duplicate_fingerprints_warn_once_and_keep_the_last(
        self, tmp_path
    ):
        # A journal with hand-duplicated lines (a retry history, or a
        # sweep that recomputed items after a pool rebuild before the
        # harvest fix): replay keeps the LAST record per key and warns
        # exactly once, naming the counts.
        import warnings as warnings_module

        path = tmp_path / "ckpt.jsonl"
        ckpt = SweepCheckpoint(path)
        summary = run_scenario(tiny())
        ckpt.record("k1", FailedRun("s", "fifo", 1, "RuntimeError", "boom"))
        ckpt.record("k2", summary)
        # Duplicate both keys by replaying the file onto itself.
        lines = path.read_text(encoding="utf-8")
        first_k1 = json.loads(lines.splitlines()[0])
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(lines)  # k1 failed, k2 summary — again
            fh.write(json.dumps(first_k1) + "\n")  # k1 a third time

        with warnings_module.catch_warnings(record=True) as caught:
            warnings_module.simplefilter("always")
            reloaded = SweepCheckpoint(path)
        dup_warnings = [
            w for w in caught if "duplicate" in str(w.message)
        ]
        assert len(dup_warnings) == 1  # once per load, not per line
        assert "3 duplicate line(s)" in str(dup_warnings[0].message)
        assert "2 fingerprint(s)" in str(dup_warnings[0].message)
        assert reloaded.duplicate_keys == 3
        # Last-write-wins: k1's final record is the failure replay, k2's
        # the summary.
        assert reloaded.failed("k1") is not None
        assert reloaded.completed("k2") is not None

    def test_clean_journal_does_not_warn(self, tmp_path):
        import warnings as warnings_module

        path = tmp_path / "ckpt.jsonl"
        SweepCheckpoint(path).record("k1", run_scenario(tiny()))
        with warnings_module.catch_warnings(record=True) as caught:
            warnings_module.simplefilter("always")
            reloaded = SweepCheckpoint(path)
        assert [w for w in caught if "duplicate" in str(w.message)] == []
        assert reloaded.duplicate_keys == 0

    def test_record_repairs_a_torn_tail_before_appending(self, tmp_path):
        # Hand-truncate the final line (no trailing newline), then append:
        # the new record must land on its own line, not be glued onto the
        # torn fragment (which would lose both records on reload).
        path = tmp_path / "ckpt.jsonl"
        ckpt = SweepCheckpoint(path)
        summary = run_scenario(tiny())
        ckpt.record("k1", summary)
        ckpt.record("k2", summary)
        whole = path.read_bytes()
        path.write_bytes(whole[:-10])  # tear the k2 line mid-write
        survivor = SweepCheckpoint(path)
        survivor.record("k3", summary)
        reloaded = SweepCheckpoint(path)
        assert reloaded.completed("k1") is not None  # first line intact
        assert reloaded.completed("k2") is None  # torn, quarantined
        assert reloaded.completed("k3") is not None  # appended cleanly


class TestResumedSweeps:
    def test_resume_reuses_results_identically(self, tmp_path):
        configs = [tiny(seed=s) for s in (5, 6, 7)]
        uninterrupted = run_many(configs, workers=1)

        # "Killed" sweep: only the first two items got checkpointed.
        path = tmp_path / "ckpt.jsonl"
        partial = run_many(configs[:2], workers=1, checkpoint=str(path))
        assert stable(partial) == stable(uninterrupted[:2])

        # Resume over the full grid: completed runs come from the file.
        resumed = run_many(configs, workers=1, checkpoint=str(path))
        assert stable(resumed) == stable(uninterrupted)
        # The reused entries are the recorded objects, not re-runs: their
        # recorded wall clocks match the checkpointed ones exactly.
        reloaded = SweepCheckpoint(path)
        for cfg, result in zip(configs[:2], resumed[:2]):
            hit = reloaded.completed(config_fingerprint(cfg))
            assert hit == result

    def test_resumed_failures_are_retried(self, tmp_path):
        path = tmp_path / "ckpt.jsonl"
        cfg = tiny(seed=9)
        ckpt = SweepCheckpoint(path)
        ckpt.record(
            config_fingerprint(cfg),
            FailedRun(cfg.name, cfg.policy, cfg.seed, "OSError", "flaky disk"),
        )
        [result] = run_many([cfg], workers=1, checkpoint=str(path))
        assert isinstance(result, RunSummary)

    def test_checkpoint_file_is_valid_jsonl(self, tmp_path):
        path = tmp_path / "ckpt.jsonl"
        run_many([tiny(seed=3), broken()], workers=1, checkpoint=str(path))
        lines = [json.loads(x) for x in path.read_text().splitlines() if x]
        assert {entry["kind"] for entry in lines} == {"summary", "failed"}


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

    def test_retries_use_fresh_seeds_and_count_attempts(self):
        [result] = run_many([broken(seed=4)], workers=1, retries=2)
        assert isinstance(result, FailedRun)
        assert result.attempts == 3
