"""Cross-process snapshot portability (the sweep ``--resume`` contract).

A sweep worker's rolling snapshot is written in a spawn-context child and
restored by whichever process retries the grid point — possibly a fresh
worker with a different hash seed.  That only works if a simulation
captured in one process continues *byte-identically* in another.  This
suite runs a scenario to mid-horizon in a real spawn child, writes a
``repro.snapshot`` file there, restores it in the parent and runs it to the
horizon, comparing against a run that never crossed a process boundary.
"""

from __future__ import annotations

import json

from repro.chaos.runner import stable_summary
from repro.engine.events import PRIORITY_SNAPSHOT
from repro.experiments.runner import build_scenario, run_built
from repro.parallel.pool import _pool_context
from repro.snapshot import fork, read_snapshot, restore, save, write_snapshot
from tests.obs.conftest import tiny_config


def traced(**overrides):
    return tiny_config(trace_capacity=500_000, **overrides)


def outputs(built, summary) -> tuple[str, str]:
    """The observable bytes of a finished run: trace and stable summary."""
    assert built.trace is not None
    return (
        built.trace.to_jsonl(),
        json.dumps(stable_summary(summary), sort_keys=True),
    )


def _snapshot_in_child(conn, snapshot_path):
    """Spawn target: run to mid-horizon, write the snapshot, report its
    checksum."""
    config = traced()
    built = build_scenario(config)
    built.sim.run(until=config.sim_time / 2.0)
    snapshot = save(built)
    write_snapshot(snapshot, snapshot_path)
    conn.send(snapshot.checksum)
    conn.close()


class TestCrossProcessPortability:
    def test_child_snapshot_restores_byte_identically_in_parent(
        self, tmp_path
    ):
        snapshot_path = str(tmp_path / "mid.snap.gz")
        ctx = _pool_context()
        parent_conn, child_conn = ctx.Pipe(duplex=False)
        proc = ctx.Process(
            target=_snapshot_in_child, args=(child_conn, snapshot_path)
        )
        proc.start()
        child_conn.close()
        child_checksum = parent_conn.recv()
        proc.join(timeout=60.0)
        assert proc.exitcode == 0

        config = traced()
        snapshot = read_snapshot(snapshot_path)
        assert snapshot.checksum == child_checksum

        # The same capture taken in this process is the same payload...
        local = build_scenario(config)
        local.sim.run(until=config.sim_time / 2.0)
        assert save(local).checksum == child_checksum

        # ...and the child's state, continued here, replays the bytes of a
        # run that never crossed a process boundary.
        restored = restore(snapshot)
        resumed = outputs(restored, run_built(restored))
        uninterrupted = build_scenario(config)
        expected = outputs(uninterrupted, run_built(uninterrupted))
        assert resumed[0] == expected[0]
        assert resumed[1] == expected[1]

    def test_restoring_under_a_different_seed_diverges(self):
        """Anti-vacuity: the byte comparison can actually fail."""
        config = traced()
        built = build_scenario(config)
        box: list = []
        built.sim.schedule_at(
            config.sim_time / 2.0,
            lambda: box.append(save(built)),
            priority=PRIORITY_SNAPSHOT,
        )
        expected = outputs(built, run_built(built))
        forked = fork(box[0], seed=config.seed + 1)
        assert outputs(forked, run_built(forked))[0] != expected[0]
