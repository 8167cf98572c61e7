"""Shard worker process: a lockstep mobility replica answering for stripes.

Spawn-picklable entry point (:func:`shard_worker_main`) run in a
``spawn``-context process per shard.  The worker builds the scenario's
mobility model fresh, restores the replica state it is handed (inline push
or its rolling snapshot file), replays the recorded barrier times, and then
serves the tick-barrier protocol of :mod:`repro.shard.protocol`: advance to
the exact barrier time, detect contact pairs on its stripe windows, filter
by ownership, reply.

Failure semantics are deliberately blunt: any unexpected exception escapes
``shard_worker_main`` and kills the process, the coordinator sees EOF on
the pipe and drives recovery.  The worker never tries to limp along with
corrupt state — a dead worker is recoverable by construction (snapshot +
replay), a silently wrong one is not.

The ``kill_at`` argument implements the chaos barrier-crash fault
(``ScenarioConfig.shard_kill``): on its first incarnation only, the worker
SIGKILLs itself upon *receiving* that barrier — before heartbeating — so
the coordinator observes the worst case: a shard that goes dark mid-barrier
with its tick unanswered.
"""

from __future__ import annotations

import os
import signal
from multiprocessing.connection import Connection
from typing import Any

from repro.errors import SnapshotError
from repro.rng import RngFactory
from repro.shard.partition import StripePlan
from repro.shard.protocol import (
    capture_replica,
    positions_digest,
    restore_replica,
)
from repro.snapshot.capture import encode_config
from repro.snapshot.codec import (
    canonical_json,
    make_snapshot,
    read_snapshot,
    write_snapshot,
)
from repro.world.contacts import KDTreeDetector

__all__ = ["shard_worker_main"]


def shard_worker_main(
    conn: Connection,
    config: Any,
    shard_id: int,
    incarnation: int,
    snapshot_path: str,
    kill_at: int | None,
) -> None:
    """Serve barriers until ``("bye",)`` or pipe closure."""
    # Imported here, not at module top: the runner imports the shard world
    # lazily, and this keeps the worker's import graph acyclic with it.
    from repro.experiments.runner import _make_mobility

    mobility = _make_mobility(config)
    stream = RngFactory(config.seed).stream("mobility")
    mobility.initialize(stream)
    plan = StripePlan.for_area(config.area, config.shard_count)
    detector = KDTreeDetector()
    radius = float(config.radio_range)
    stripes: tuple[int, ...] = ()

    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):
            return  # coordinator went away; die quietly
        kind = msg[0]

        if kind == "init":
            payload = msg[1]
            try:
                replica = _load_replica(payload, config)
            except SnapshotError as exc:
                # Snapshot missing/corrupt/mismatched: report and stay
                # alive — the coordinator falls back to an inline push.
                conn.send(("init-error", str(exc)))
                continue
            restore_replica(mobility, stream, replica)
            stripes = tuple(payload["stripes"])
            for t in payload["replay"]:
                mobility.advance(t)
            conn.send(("ready", mobility._time))

        elif kind == "assign":
            stripes = tuple(msg[1])
            conn.send(("assigned", list(stripes)))

        elif kind == "tick":
            _, seq, now = msg
            if kill_at is not None and incarnation == 0 and seq == kill_at:
                os.kill(os.getpid(), signal.SIGKILL)
            conn.send(("hb", seq))
            positions = mobility.advance(now)
            pairs = plan.owned_pairs(positions, radius, detector, stripes)
            conn.send(("pairs", seq, pairs, positions_digest(positions)))

        elif kind == "snap":
            _, seq = msg
            snap = make_snapshot(
                encode_config(config),
                {
                    "shard": shard_id,
                    "barrier_seq": seq,
                    "time": mobility._time,
                    "replica": capture_replica(mobility, stream),
                },
            )
            write_snapshot(snap, snapshot_path)
            conn.send(("snapped", seq, snapshot_path))

        elif kind == "bye":
            conn.close()
            return


def _load_replica(payload: dict[str, Any], config: Any) -> dict[str, Any]:
    """The replica state from an init payload (inline beats file)."""
    if payload.get("replica") is not None:
        return dict(payload["replica"])
    path = payload.get("snapshot")
    if not path:
        raise SnapshotError("init payload carries neither replica nor snapshot")
    snap = read_snapshot(path)
    if canonical_json(snap.config) != canonical_json(encode_config(config)):
        raise SnapshotError(
            f"shard snapshot {path} was written for a different config"
        )
    return dict(snap.state["replica"])
