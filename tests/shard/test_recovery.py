"""Crash recovery and graceful degradation stay byte-identical.

Every scenario here kills (or refuses to respawn) shard workers mid-run and
asserts the surviving run still reproduces the uninterrupted single-process
bytes — the core robustness claim of docs/sharding.md.  The deterministic
``shard_kill`` config fault drives both recovery flavours (snapshot +
replay after a rolling snapshot exists, full state push before one does);
an OS-level SIGKILL from a helper thread covers the nondeterministic
arrival case; injected always-failing spawns force quarantine + fold.
"""

from __future__ import annotations

import json
import os
import signal
import threading
import time

from repro.experiments.runner import build_scenario, run_built
from repro.experiments.scenario import ScenarioConfig
from repro.shard.coordinator import ShardCoordinator
from repro.shard.supervisor import _spawn_worker
from tests.obs.conftest import tiny_config
from tests.obs.test_determinism import assert_identical
from tests.shard.test_equivalence import stable_summary

#: Barriers between rolling snapshots in these runs (kept small so a kill
#: after the first snapshot still happens early in the 300s horizon).
SNAP_EVERY = 40


def observed(**overrides) -> ScenarioConfig:
    return tiny_config(
        obs_interval=60.0, trace_capacity=500_000, sim_time=300.0, **overrides
    )


def run_observed(config, *, coordinator_kwargs=None, mid_run=None):
    """Run one scenario; returns ((trace, timeseries, summary), stats).

    ``coordinator_kwargs`` swaps in a custom-configured coordinator (the
    runner builds one with defaults); ``mid_run`` starts a thread given the
    coordinator, for OS-level fault injection while the run is in flight.
    """
    built = build_scenario(config)
    coord = getattr(built.world, "coordinator", None)
    if coordinator_kwargs:
        replacement = ShardCoordinator(config, **coordinator_kwargs)
        replacement.attach(coord._mobility, coord._stream)
        coord.close()
        built.world.coordinator = coord = replacement
    thread = None
    if mid_run is not None:
        thread = threading.Thread(target=mid_run, args=(coord,), daemon=True)
        thread.start()
    summary = run_built(built)
    if thread is not None:
        thread.join(timeout=30.0)
    stats = coord.stats if coord is not None else None
    return (
        built.trace.to_jsonl(),
        json.dumps(built.timeseries.as_dict(), sort_keys=True),
        stable_summary(summary),
    ), stats


def assert_matches_single_process(name, outputs, reference=None):
    if reference is None:
        reference, _ = run_observed(observed())
    assert_identical(f"{name}-trace-timeseries", [reference[:2], outputs[:2]])
    assert outputs[2] == reference[2], f"{name}: summary differs"
    return reference


def refuse_respawns(config, shard_id, incarnation, snapshot_path, kill_at):
    """Spawn that works once per shard and then permanently fails."""
    if incarnation > 0:
        raise OSError("no process slots left")
    return _spawn_worker(config, shard_id, incarnation, snapshot_path, kill_at)


def refuse_all_spawns(config, shard_id, incarnation, snapshot_path, kill_at):
    raise OSError("fork bomb protection engaged")


class TestScriptedCrashes:
    def test_kill_after_snapshot_recovers_from_snapshot(self):
        """Death at barrier 100 with snapshots every 40: the replacement
        restores barrier-80 state and replays exact recorded times."""
        outputs, stats = run_observed(
            observed(shard_count=2, shard_kill=(0, 100)),
            coordinator_kwargs={"snap_every": SNAP_EVERY},
        )
        assert stats["worker_deaths"] == 1
        assert stats["snapshot_recoveries"] == 1
        assert stats["push_recoveries"] == 0
        assert stats["folds"] == 0
        assert_matches_single_process("snapshot-recovery", outputs)

    def test_kill_before_first_snapshot_recovers_from_push(self):
        """Death at barrier 5, before any snapshot: the coordinator pushes
        its own live replica state instead."""
        outputs, stats = run_observed(
            observed(shard_count=2, shard_kill=(0, 5)),
            coordinator_kwargs={"snap_every": SNAP_EVERY},
        )
        assert stats["worker_deaths"] == 1
        assert stats["push_recoveries"] == 1
        assert stats["snapshot_recoveries"] == 0
        assert_matches_single_process("push-recovery", outputs)

    def test_both_recovery_runs_replay_each_other(self):
        """Anti-flake determinism: the same scripted crash twice produces
        the same recovery path and the same bytes."""
        a, _ = run_observed(observed(shard_count=2, shard_kill=(1, 50)))
        b, _ = run_observed(observed(shard_count=2, shard_kill=(1, 50)))
        assert a == b


class TestExternalKill:
    def test_sigkilled_worker_recovers_byte_identically(self):
        """An OS-level SIGKILL at an arbitrary point mid-run (the ISSUE's
        smoke scenario) — whichever recovery flavour fires, bytes match."""

        def sigkill_shard_zero(coord):
            for _ in range(1000):
                handle = coord.supervisor.handles.get(0)
                if handle is not None and getattr(handle.process, "pid", None):
                    time.sleep(0.3)  # land mid-run, past the init handshake
                    try:
                        os.kill(handle.process.pid, signal.SIGKILL)
                    except (ProcessLookupError, PermissionError):
                        pass
                    return
                time.sleep(0.01)

        outputs, stats = run_observed(
            observed(shard_count=2), mid_run=sigkill_shard_zero
        )
        assert stats["respawns"] >= 1
        assert stats["snapshot_recoveries"] + stats["push_recoveries"] >= 1
        assert_matches_single_process("sigkill-recovery", outputs)


class TestDegradation:
    def test_exhausted_budget_folds_into_survivor(self, tmp_path):
        """Shard 0 dies and can never come back: its stripes fold into the
        survivor, the poison region is quarantined as a chaos reproducer,
        and the bytes still match."""
        qdir = tmp_path / "corpus"
        outputs, stats = run_observed(
            observed(shard_count=2, shard_kill=(0, 60)),
            coordinator_kwargs={
                "max_respawns": 2,
                "quarantine_dir": qdir,
                "spawn_fn": refuse_respawns,
                "sleep": lambda _d: None,  # skip real backoff waits
            },
        )
        assert stats["folds"] == 1 and stats["quarantined"] == 1
        entries = list(qdir.glob("*.json"))
        assert len(entries) == 1
        entry = json.loads(entries[0].read_text())
        assert entry["failure"]["invariant"] == "ShardWorkerDeath"
        assert entry["config"]["shard_kill"] == [0, 60]
        assert_matches_single_process("fold-degradation", outputs)

    def test_no_workers_at_all_degrades_to_inline(self):
        """Every spawn fails from the start: all stripes fold into the
        coordinator's inline path — a de facto single-process run."""
        outputs, stats = run_observed(
            observed(shard_count=2),
            coordinator_kwargs={
                "max_respawns": 1,
                "spawn_fn": refuse_all_spawns,
                "sleep": lambda _d: None,
            },
        )
        assert stats["folds"] == 2 and stats["quarantined"] == 2
        assert stats["spawns"] == 0
        assert_matches_single_process("inline-degradation", outputs)
