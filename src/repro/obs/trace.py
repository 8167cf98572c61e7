"""Structured event tracing: a bounded ring buffer of engine events.

:class:`EventTrace` subscribes to the simulator's message/transfer/link/fault
topics and keeps the last *capacity* events as plain dicts with sim-time
stamps.  The buffer is bounded so tracing a multi-hour sweep cannot exhaust
memory; :attr:`EventTrace.events_seen` counts everything observed, including
records that have already been evicted from the ring.

Records serialize as JSONL — one compact, key-sorted JSON object per line —
so two runs of the same seeded scenario produce *byte-identical* dumps
(the determinism suite relies on this).  :func:`read_trace_jsonl` parses a
dump back, raising :class:`~repro.errors.ObsFormatError` (never ``KeyError``)
on malformed or truncated input, and :func:`aggregate_trace` re-derives the
headline counters so exports can be validated against the in-memory
:class:`~repro.reports.metrics.MetricsCollector`.

Trace record schema (all records have ``t`` (sim seconds) and ``topic``):

====================  ========================================================
``message.created``   ``msg, src, dst, size, copies, ttl``
``message.relayed``   ``msg, from, to, outcome``
``message.delivered`` ``msg, from, to, hops``
``message.dropped``   ``msg, node, reason`` (reason: ``DROP_REASONS``)
``message.expired``   ``msg, node``
``transfer.started``  ``seq, msg, from, to, mode, eta``
``transfer.commit``   ``seq, msg``
``transfer.aborted``  ``seq, msg, from, to``
``link.up``           ``a, b``
``link.down``         ``a, b``
``fault.injected``    ``kind``
====================  ========================================================
"""

from __future__ import annotations

import json
from collections import deque
from pathlib import Path
from typing import TYPE_CHECKING, Any

from repro.engine.simulator import UNSUBSCRIBED, Simulator, Unsubscribed
from repro.errors import ConfigurationError, ObsFormatError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.net.message import Message
    from repro.net.transfer import Transfer
    from repro.world.node import Node

__all__ = [
    "DEFAULT_CONTEXT_EVENTS",
    "DEFAULT_TRACE_CAPACITY",
    "EventTrace",
    "TRACE_TOPICS",
    "aggregate_trace",
    "format_record",
    "read_trace_jsonl",
]

#: Default ring size: plenty for reduced scenarios, bounded for full ones.
DEFAULT_TRACE_CAPACITY = 65536
#: How many trailing events accompany an ``InvariantViolation`` (see
#: :func:`repro.experiments.runner.run_built`).
DEFAULT_CONTEXT_EVENTS = 50

#: Topics recorded by :meth:`EventTrace.subscribe`.
TRACE_TOPICS = (
    "message.created",
    "message.relayed",
    "message.delivered",
    "message.dropped",
    "message.expired",
    "transfer.started",
    "transfer.commit",
    "transfer.aborted",
    "link.up",
    "link.down",
    "fault.injected",
)


class EventTrace:
    """Bounded, deterministic ring buffer of structured engine events."""

    def __init__(self, capacity: int = DEFAULT_TRACE_CAPACITY) -> None:
        if capacity <= 0:
            raise ConfigurationError(
                f"trace capacity must be positive, got {capacity}"
            )
        self.capacity = int(capacity)
        self._records: deque[dict[str, Any]] = deque(maxlen=self.capacity)
        #: Total events observed (>= len(self) once the ring wraps).
        self.events_seen = 0
        #: The simulator :meth:`subscribe` binds; records read its ``now``.
        self._sim: Simulator | Unsubscribed = UNSUBSCRIBED

    # -- wiring ------------------------------------------------------------

    def subscribe(self, sim: Simulator) -> None:
        """Attach to *sim*'s listener registry (observation-only)."""
        self._sim = sim
        listeners = sim.listeners
        listeners.subscribe("message.created", self._on_created)
        listeners.subscribe("message.relayed", self._on_relayed)
        listeners.subscribe("message.delivered", self._on_delivered)
        listeners.subscribe("message.dropped", self._on_dropped)
        listeners.subscribe("message.expired", self._on_expired)
        listeners.subscribe("transfer.started", self._on_transfer_started)
        listeners.subscribe("transfer.commit", self._on_transfer_commit)
        listeners.subscribe("transfer.aborted", self._on_transfer_aborted)
        listeners.subscribe("link.up", self._on_link_up)
        listeners.subscribe("link.down", self._on_link_down)
        listeners.subscribe("fault.injected", self._on_fault)

    def _add(self, topic: str, **fields: Any) -> None:
        record: dict[str, Any] = {"t": self._sim.now, "topic": topic}
        record.update(fields)
        self.events_seen += 1
        self._records.append(record)

    # -- handlers ----------------------------------------------------------

    def _on_created(self, message: Message) -> None:
        self._add(
            "message.created",
            msg=message.msg_id,
            src=message.source,
            dst=message.destination,
            size=message.size,
            copies=message.copies,
            ttl=message.ttl,
        )

    def _on_relayed(
        self, message: Message, sender: Node, receiver: Node, outcome: object
    ) -> None:
        self._add(
            "message.relayed",
            msg=message.msg_id,
            **{"from": sender.id, "to": receiver.id},
            outcome=getattr(outcome, "value", str(outcome)),
        )

    def _on_delivered(self, message: Message, sender: Node, receiver: Node) -> None:
        self._add(
            "message.delivered",
            msg=message.msg_id,
            **{"from": sender.id, "to": receiver.id},
            hops=message.hop_count,
        )

    def _on_dropped(self, message: Message, node: Node, reason: str) -> None:
        self._add(
            "message.dropped", msg=message.msg_id, node=node.id, reason=reason
        )

    def _on_expired(self, message: Message, node: Node) -> None:
        self._add("message.expired", msg=message.msg_id, node=node.id)

    def _on_transfer_started(self, transfer: Transfer) -> None:
        self._add(
            "transfer.started",
            seq=transfer.seq,
            msg=transfer.message.msg_id,
            **{"from": transfer.sender.id, "to": transfer.receiver.id},
            mode=transfer.mode,
            eta=transfer.eta,
        )

    def _on_transfer_commit(self, transfer: Transfer) -> None:
        self._add(
            "transfer.commit", seq=transfer.seq, msg=transfer.message.msg_id
        )

    def _on_transfer_aborted(self, transfer: Transfer) -> None:
        self._add(
            "transfer.aborted",
            seq=transfer.seq,
            msg=transfer.message.msg_id,
            **{"from": transfer.sender.id, "to": transfer.receiver.id},
        )

    def _on_link_up(self, a: Node, b: Node) -> None:
        self._add("link.up", a=a.id, b=b.id)

    def _on_link_down(self, a: Node, b: Node) -> None:
        self._add("link.down", a=a.id, b=b.id)

    def _on_fault(self, kind: str, now: float) -> None:
        self._add("fault.injected", kind=kind)

    # -- access ------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._records)

    def records(self) -> list[dict[str, Any]]:
        """All retained records, oldest first (copies of the ring)."""
        return list(self._records)

    def tail(self, n: int = DEFAULT_CONTEXT_EVENTS) -> list[dict[str, Any]]:
        """The last *n* records (fewer if the trace is shorter)."""
        if n <= 0:
            return []
        records = self._records
        if n >= len(records):
            return list(records)
        return list(records)[-n:]

    # -- serialization ------------------------------------------------------

    def to_jsonl(self) -> str:
        """The whole ring as JSONL (deterministic: compact, sorted keys)."""
        return "".join(format_record(r) for r in self._records)

    def dump_jsonl(self, path: str | Path) -> int:
        """Write the ring to *path* as JSONL; returns the record count."""
        Path(path).write_text(self.to_jsonl(), encoding="utf-8")
        return len(self._records)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<EventTrace {len(self)}/{self.capacity} retained, "
            f"{self.events_seen} seen>"
        )


def format_record(record: dict[str, Any]) -> str:
    """One trace record as a compact, key-sorted JSON line."""
    return json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"


def read_trace_jsonl(path: str | Path) -> list[dict[str, Any]]:
    """Parse a JSONL trace dump back into records.

    Malformed lines — truncated JSON, non-object lines, records missing the
    required ``t``/``topic`` keys or with a non-numeric timestamp — raise
    :class:`~repro.errors.ObsFormatError` naming the file and line, never a
    bare ``KeyError``/``JSONDecodeError``.
    """
    path = Path(path)
    records: list[dict[str, Any]] = []
    with path.open(encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError as exc:
                raise ObsFormatError(
                    f"{path}:{lineno}: malformed trace line ({exc})"
                ) from None
            if not isinstance(record, dict):
                raise ObsFormatError(
                    f"{path}:{lineno}: trace record is not a JSON object"
                )
            if "topic" not in record or "t" not in record:
                raise ObsFormatError(
                    f"{path}:{lineno}: trace record missing 't'/'topic' keys"
                )
            if not isinstance(record["t"], (int, float)) or isinstance(
                record["t"], bool
            ):
                raise ObsFormatError(
                    f"{path}:{lineno}: timestamp is not a number: "
                    f"{record['t']!r}"
                )
            records.append(record)
    return records


def aggregate_trace(records: list[dict[str, Any]]) -> dict[str, Any]:
    """Re-derive headline counters from trace records.

    Returns a dict with ``created``, ``delivered``, ``relayed``, ``started``,
    ``aborted``, ``commits``, ``drops_by_reason`` and ``faults_by_kind`` —
    directly comparable to a
    :class:`~repro.reports.metrics.MetricsCollector` (round-trip-tested in
    ``tests/obs/test_trace.py``).  A record whose topic needs a field it
    lacks raises :class:`~repro.errors.ObsFormatError`.
    """
    counts = {
        "created": 0,
        "delivered": 0,
        "relayed": 0,
        "started": 0,
        "aborted": 0,
        "commits": 0,
    }
    drops: dict[str, int] = {}
    faults: dict[str, int] = {}
    for i, record in enumerate(records):
        topic = record.get("topic")
        if topic == "message.created":
            counts["created"] += 1
        elif topic == "message.delivered":
            counts["delivered"] += 1
        elif topic == "message.relayed":
            counts["relayed"] += 1
        elif topic == "transfer.started":
            counts["started"] += 1
        elif topic == "transfer.aborted":
            counts["aborted"] += 1
        elif topic == "transfer.commit":
            counts["commits"] += 1
        elif topic == "message.dropped":
            if "reason" not in record:
                raise ObsFormatError(
                    f"record {i}: message.dropped without 'reason'"
                )
            reason = record["reason"]
            drops[reason] = drops.get(reason, 0) + 1
        elif topic == "fault.injected":
            if "kind" not in record:
                raise ObsFormatError(
                    f"record {i}: fault.injected without 'kind'"
                )
            kind = record["kind"]
            faults[kind] = faults.get(kind, 0) + 1
    return {**counts, "drops_by_reason": drops, "faults_by_kind": faults}
