"""The tick-barrier coordinator: merge, recover, degrade.

One :class:`ShardCoordinator` serves one :class:`~repro.shard.world.ShardedWorld`.
Per world tick it runs a barrier: send ``("tick", seq, now)`` to every live
worker in shard-id order, collect ``("pairs", ...)`` answers under the
supervisor's heartbeat deadline, verify each answer's position digest
against the coordinator's own (lockstep-drift tripwire), and merge the
owned-pair lists in fixed shard-id order.  Because stripe ownership is a
pure per-pair function (:mod:`repro.shard.partition`), the merged set is
byte-for-byte the single-process detector output for any shard count.

Failure handling, in escalation order:

1. **Recover** — a worker that dies (pipe EOF) or stalls past its deadline
   is discarded and respawned after a seeded backoff.  The respawn restores
   from the shard's rolling snapshot and replays the recorded barrier times
   (exact floats — recurring-event times carry accumulated rounding that
   ``k * tick`` would not reproduce), or, before a first snapshot exists,
   from a state push off the coordinator's live replica.  The in-flight
   barrier is then re-sent and the run continues byte-identically.
2. **Degrade** — a shard whose respawn budget is exhausted is quarantined
   (chaos-corpus reproducer) and its stripes are folded into the
   lowest-id surviving worker; with no survivors they fold into the
   coordinator itself, which computes them inline — all the way down to a
   plain single-process run.  Folds change *who* computes a stripe, never
   *what* it answers, so results stay identical.

The coordinator is deliberately synchronous and single-threaded: barrier
latency is bounded by the slowest worker anyway, and a sequential recovery
path is one that deterministic tests can actually pin down.
"""

from __future__ import annotations

import shutil
import tempfile
import time
from collections.abc import Callable
from multiprocessing.connection import wait as _conn_wait
from pathlib import Path
from typing import Any

import numpy as np

from repro.errors import ConfigurationError, InvariantViolation
from repro.shard.partition import StripePlan
from repro.shard.protocol import capture_replica, positions_digest
from repro.shard.supervisor import ShardHandle, ShardSupervisor
from repro.world.contacts import KDTreeDetector

__all__ = ["ShardCoordinator"]


class ShardCoordinator:
    """Drives the shard workers for one run; owns nothing simulated."""

    def __init__(
        self,
        config: Any,
        *,
        barrier_timeout: float = 30.0,
        snap_every: int = 50,
        max_respawns: int = 2,
        quarantine_dir: str | None = None,
        snapshot_dir: str | None = None,
        clock: Callable[[], float] | None = None,
        sleep: Callable[[float], None] = time.sleep,
        poll_interval: float = 0.02,
        spawn_fn: Callable[..., tuple[Any, Any]] | None = None,
    ) -> None:
        if config.shard_count < 2:
            raise ConfigurationError(
                f"ShardCoordinator needs shard_count >= 2: {config.shard_count}"
            )
        if snap_every < 1:
            raise ConfigurationError(f"snap_every must be >= 1: {snap_every}")
        self.config = config
        self.plan = StripePlan.for_area(config.area, config.shard_count)
        self.radius = float(config.radio_range)
        self.snap_every = int(snap_every)
        self._poll_interval = float(poll_interval)
        self._owns_snapshot_dir = snapshot_dir is None
        self._snapshot_dir = Path(
            snapshot_dir
            if snapshot_dir is not None
            else tempfile.mkdtemp(prefix="repro-shard-")
        )
        sup_kwargs: dict[str, Any] = dict(
            snapshot_dir=self._snapshot_dir,
            barrier_timeout=barrier_timeout,
            max_respawns=max_respawns,
            quarantine_dir=quarantine_dir,
            clock=clock,
            sleep=sleep,
        )
        if spawn_fn is not None:
            sup_kwargs["spawn_fn"] = spawn_fn
        self.supervisor = ShardSupervisor(config, **sup_kwargs)
        #: Workers get longer than a barrier to come up: a spawn imports
        #: numpy and rebuilds the scenario's mobility before it can answer.
        self.init_timeout = max(float(barrier_timeout), 15.0)
        #: Answers the inline stripes; stateless, like the workers' own.
        self._detector = KDTreeDetector()
        self._mobility: Any = None
        self._stream: np.random.Generator | None = None
        self._started = False
        self._closed = False
        self._seq = 0
        #: Stripes the coordinator computes in-process (after total
        #: degradation); disjoint from every live worker's assignment.
        self._inline: tuple[int, ...] = ()
        #: Recorded (seq, now) of past barriers, pruned to the oldest live
        #: shard snapshot — the recovery replay source.
        self._barrier_times: list[tuple[int, float]] = []
        #: Barrier seq of each shard's last completed rolling snapshot.
        self._last_snap: dict[int, int] = {}

    # -- wiring ------------------------------------------------------------

    def attach(self, mobility: Any, stream: np.random.Generator) -> None:
        """Give the coordinator the world's live mobility + RNG stream
        (the push-recovery source).  Called by ``ShardedWorld.start``."""
        self._mobility = mobility
        self._stream = stream

    @property
    def stats(self) -> dict[str, int]:
        return self.supervisor.stats.as_dict()

    # -- startup -----------------------------------------------------------

    def _ensure_started(self) -> None:
        if self._started:
            return
        if self._mobility is None or self._stream is None:
            raise ConfigurationError(
                "ShardCoordinator.attach() must run before the first barrier"
            )
        self._started = True
        for shard_id in range(self.config.shard_count):
            if not self._bring_up(shard_id, (shard_id,)):
                # Startup failures burn the shard's whole respawn budget;
                # fold immediately (no barrier in flight to recompute).
                self._quarantine_and_fold(
                    shard_id, (shard_id,), "never came up"
                )

    def _bring_up(self, shard_id: int, stripes: tuple[int, ...]) -> bool:
        """Spawn + init until ready, burning backoff budget on failures."""
        sup = self.supervisor
        while True:
            if self._spawn_and_init(shard_id, stripes):
                return True
            if sup.respawns_left(shard_id) <= 0:
                return False
            sup.pace(sup.consume_respawn(shard_id))

    def _spawn_and_init(
        self,
        shard_id: int,
        stripes: tuple[int, ...],
        *,
        include_current: bool = False,
    ) -> ShardHandle | None:
        """One spawn + init attempt; a spawn that cannot even fork counts
        as a failed attempt, not a coordinator crash."""
        sup = self.supervisor
        try:
            handle = sup.spawn(shard_id, stripes)
        except OSError:
            return None
        if not self._init_worker(handle, include_current=include_current):
            sup.discard(shard_id)
            return None
        return handle

    def _init_payload(
        self, shard_id: int, stripes: tuple[int, ...], *, include_current: bool
    ) -> dict[str, Any]:
        """Snapshot-restore payload when the shard has one, else a push."""
        sup = self.supervisor
        path = sup.snapshot_path(shard_id)
        since = self._last_snap.get(shard_id, 0)
        if since > 0 and path.exists():
            # The replay list must hold every barrier time in the window,
            # as recorded: advance() subdivides each leg by max_step, so
            # skipping an intermediate barrier (or re-deriving times as
            # k * tick) would change the dt sequence and break lockstep.
            bound = self._seq + 1 if include_current else self._seq
            return {
                "snapshot": str(path),
                "replica": None,
                "stripes": list(stripes),
                "replay": [
                    t for (s, t) in self._barrier_times if since < s < bound
                ],
            }
        assert self._mobility is not None and self._stream is not None
        return {
            "snapshot": None,
            "replica": capture_replica(self._mobility, self._stream),
            "stripes": list(stripes),
            "replay": [],
        }

    def _init_worker(
        self, handle: ShardHandle, *, include_current: bool = False
    ) -> bool:
        """Send init and await ``ready`` (falling back from a bad snapshot
        to a push).  False means the worker is unusable and not yet dead."""
        payload = self._init_payload(
            handle.shard_id, handle.stripes, include_current=include_current
        )
        if handle.incarnation > 0:
            if payload["snapshot"] is not None:
                self.supervisor.stats.snapshot_recoveries += 1
            else:
                self.supervisor.stats.push_recoveries += 1
        if not self._send(handle, ("init", payload)):
            return False
        deadline_used = 0.0
        while deadline_used < self.init_timeout:
            if not handle.conn.poll(self._poll_interval):
                deadline_used += self._poll_interval
                continue
            try:
                msg = handle.conn.recv()
            except (EOFError, OSError):
                return False
            if msg[0] == "ready":
                self.supervisor.note(handle.shard_id)
                return True
            if msg[0] == "init-error":
                if payload["snapshot"] is None:
                    return False
                # Corrupt/mismatched snapshot: push the live state instead.
                assert self._mobility is not None and self._stream is not None
                payload = {
                    "snapshot": None,
                    "replica": capture_replica(self._mobility, self._stream),
                    "stripes": list(handle.stripes),
                    "replay": [],
                }
                if handle.incarnation > 0:
                    self.supervisor.stats.push_recoveries += 1
                if not self._send(handle, ("init", payload)):
                    return False
        return False

    # -- the barrier -------------------------------------------------------

    def pairs(self, now: float, positions: np.ndarray) -> set[tuple[int, int]]:
        """One barrier: the full owned-pair union for this tick."""
        self._ensure_started()
        self._seq += 1
        seq = self._seq
        self._barrier_times.append((seq, float(now)))
        expected = positions_digest(positions)
        results: dict[int, list[tuple[int, int]]] = {}

        for shard_id in self.supervisor.live_ids():
            handle = self.supervisor.handles[shard_id]
            if not self._send(handle, ("tick", seq, now)):
                self._recover(shard_id, seq, now, positions, results,
                              cause="pipe closed at tick send")
        self._pump(seq, now, positions, expected, results)

        if seq % self.snap_every == 0:
            self._snapshot_barrier(seq, now, positions, results)
        self._prune_times()

        merged: set[tuple[int, int]] = set()
        for shard_id in sorted(results):
            merged.update(results[shard_id])
        if self._inline:
            merged.update(
                self.plan.owned_pairs(
                    positions, self.radius, self._detector,
                    self._inline,
                )
            )
        return merged

    def _pump(
        self,
        seq: int,
        now: float,
        positions: np.ndarray,
        expected: str,
        results: dict[int, list[tuple[int, int]]],
    ) -> None:
        """Collect this barrier's answers, recovering shards that fail."""
        sup = self.supervisor
        while True:
            waiting = [s for s in sup.live_ids() if s not in results]
            if not waiting:
                return
            conns = {sup.handles[s].conn: s for s in waiting}
            for conn in _conn_wait(list(conns), timeout=self._poll_interval):
                shard_id = conns[conn]
                try:
                    msg = conn.recv()
                except (EOFError, OSError):
                    sup.stats.worker_deaths += 1
                    self._recover(shard_id, seq, now, positions, results,
                                  cause="worker died (pipe EOF)")
                    continue
                sup.note(shard_id)
                self._dispatch(shard_id, msg, seq, expected, results)
            for shard_id in [s for s in sup.live_ids() if s not in results]:
                if sup.overdue(shard_id):
                    sup.stats.stalls += 1
                    self._recover(shard_id, seq, now, positions, results,
                                  cause="heartbeat deadline exceeded")

    def _dispatch(
        self,
        shard_id: int,
        msg: tuple[Any, ...],
        seq: int,
        expected: str,
        results: dict[int, list[tuple[int, int]]],
    ) -> None:
        kind = msg[0]
        if kind == "pairs":
            _, msg_seq, pairs, digest = msg
            if msg_seq != seq or shard_id in results:
                return  # stale or duplicate answer; this barrier has it
            self.supervisor.stats.digest_checks += 1
            if digest != expected:
                raise InvariantViolation(
                    f"shard {shard_id} position digest mismatch at barrier "
                    f"{seq}: replica lockstep broke (worker {digest[:12]}…, "
                    f"coordinator {expected[:12]}…)"
                )
            results[shard_id] = [(int(i), int(j)) for i, j in pairs]
        elif kind == "snapped":
            self._last_snap[shard_id] = int(msg[1])
        # "hb" refreshed the deadline via note(); "assigned"/"ready" acks
        # carry no payload the coordinator still needs.

    # -- recovery / degradation --------------------------------------------

    def _recover(
        self,
        shard_id: int,
        seq: int,
        now: float,
        positions: np.ndarray | None,
        results: dict[int, list[tuple[int, int]]],
        *,
        cause: str,
        resend_tick: bool = True,
    ) -> None:
        """Respawn a failed shard (snapshot + replay, else push); fold its
        stripes into the survivors when the budget is gone."""
        sup = self.supervisor
        handle = sup.discard(shard_id)
        stripes = handle.stripes if handle is not None else ()
        while sup.respawns_left(shard_id) > 0:
            sup.pace(sup.consume_respawn(shard_id))
            # When the tick will NOT be re-sent (snapshot-phase recovery),
            # the replay must land the worker exactly at this barrier's
            # time, so the current barrier is part of the replay window.
            new = self._spawn_and_init(
                shard_id, stripes, include_current=not resend_tick
            )
            if new is None:
                continue
            if resend_tick and not self._send(new, ("tick", seq, now)):
                sup.discard(shard_id)
                continue
            return
        self._quarantine_and_fold(
            shard_id, stripes, cause,
            seq=seq, positions=positions if resend_tick else None,
            results=results,
        )

    def _quarantine_and_fold(
        self,
        shard_id: int,
        stripes: tuple[int, ...],
        cause: str,
        *,
        seq: int | None = None,
        positions: np.ndarray | None = None,
        results: dict[int, list[tuple[int, int]]] | None = None,
    ) -> None:
        """Poison-region quarantine, then graceful degradation."""
        sup = self.supervisor
        sup.quarantine(shard_id, cause)
        sup.stats.folds += 1
        if positions is not None and results is not None:
            # The dead shard still owes this barrier its stripes' pairs;
            # ownership purity lets the coordinator answer for it inline.
            results[shard_id] = self.plan.owned_pairs(
                positions, self.radius, self._detector, stripes
            )
        survivors = sup.live_ids()
        if survivors:
            survivor = sup.handles[survivors[0]]
            survivor.stripes = tuple(sorted(survivor.stripes + stripes))
            # No ack await: the pipe is FIFO, so the new assignment lands
            # before the next tick; _dispatch drops the "assigned" echo.
            self._send(survivor, ("assign", list(survivor.stripes)))
        else:
            self._inline = tuple(sorted(self._inline + stripes))

    # -- snapshot cadence --------------------------------------------------

    def _snapshot_barrier(
        self,
        seq: int,
        now: float,
        positions: np.ndarray,
        results: dict[int, list[tuple[int, int]]],
    ) -> None:
        """Ask every live worker for a rolling snapshot and await the acks.

        A failure here recovers the worker but skips its snapshot — its
        replay window simply stays anchored at the previous snapshot.
        """
        sup = self.supervisor
        pending = set()
        for shard_id in sup.live_ids():
            if self._send(sup.handles[shard_id], ("snap", seq)):
                pending.add(shard_id)
            else:
                self._recover(shard_id, seq, now, positions, results,
                              cause="pipe closed at snap send",
                              resend_tick=False)
        while pending:
            pending &= set(sup.live_ids())
            done = {
                s for s in pending if self._last_snap.get(s, 0) >= seq
            }
            pending -= done
            if not pending:
                return
            conns = {sup.handles[s].conn: s for s in sorted(pending)}
            for conn in _conn_wait(list(conns), timeout=self._poll_interval):
                shard_id = conns[conn]
                try:
                    msg = conn.recv()
                except (EOFError, OSError):
                    sup.stats.worker_deaths += 1
                    self._recover(shard_id, seq, now, positions, results,
                                  cause="worker died during snapshot",
                                  resend_tick=False)
                    continue
                sup.note(shard_id)
                self._dispatch(shard_id, msg, seq, "", results)
            for shard_id in sorted(pending):
                if shard_id in sup.live_ids() and sup.overdue(shard_id):
                    sup.stats.stalls += 1
                    self._recover(shard_id, seq, now, positions, results,
                                  cause="snapshot deadline exceeded",
                                  resend_tick=False)

    def _prune_times(self) -> None:
        """Drop barrier times no live shard could still need to replay."""
        live = self.supervisor.live_ids()
        if not live:
            self._barrier_times.clear()
            return
        floor = min(self._last_snap.get(s, 0) for s in live)
        self._barrier_times = [
            (s, t) for (s, t) in self._barrier_times if s > floor
        ]

    # -- plumbing ----------------------------------------------------------

    def _send(self, handle: ShardHandle, msg: tuple[Any, ...]) -> bool:
        try:
            handle.conn.send(msg)
            return True
        except (BrokenPipeError, OSError):
            return False

    def close(self) -> None:
        """Stop every worker and remove the owned snapshot directory."""
        if self._closed:
            return
        self._closed = True
        for shard_id in self.supervisor.live_ids():
            self._send(self.supervisor.handles[shard_id], ("bye",))
        self.supervisor.shutdown()
        if self._owns_snapshot_dir:
            shutil.rmtree(self._snapshot_dir, ignore_errors=True)
