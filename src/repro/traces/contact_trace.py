"""Contact traces: record link up/down events, save/load, compute stats.

A contact trace abstracts mobility away entirely — useful for regression
tests (replay exactly the same connectivity) and for analyzing contact
processes (Fig. 3) without rerunning movement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.engine.simulator import UNSUBSCRIBED, Simulator, Unsubscribed
from repro.errors import TraceFormatError
from repro.world.node import Node


@dataclass(frozen=True)
class ContactEvent:
    """One link transition."""

    time: float
    a: int
    b: int
    up: bool


class ContactTrace:
    """An ordered list of contact events.

    Event times are finite and never decrease: replay
    (:class:`~repro.world.trace_world.TraceWorld`) stops at the first event
    past its horizon, so an unsorted list would silently lose contacts.
    :meth:`append` and the constructor raise :class:`TraceFormatError`
    otherwise.
    """

    def __init__(self, events: list[ContactEvent] | None = None) -> None:
        self.events: list[ContactEvent] = []
        for event in events or []:
            self.append(event)

    def append(self, event: ContactEvent) -> None:
        if not math.isfinite(event.time):
            raise TraceFormatError(f"contact event time is not finite: {event.time}")
        if self.events and event.time < self.events[-1].time:
            raise TraceFormatError(
                f"contact events must be time-ordered: {event.time} < "
                f"{self.events[-1].time}"
            )
        self.events.append(event)

    def __len__(self) -> int:
        return len(self.events)

    # -- stats ---------------------------------------------------------------

    def intermeeting_samples(self) -> np.ndarray:
        """Per-pair gaps between a down event and the next up event."""
        last_down: dict[tuple[int, int], float] = {}
        gaps: list[float] = []
        for ev in self.events:
            key = (ev.a, ev.b) if ev.a <= ev.b else (ev.b, ev.a)
            if ev.up:
                down = last_down.pop(key, None)
                if down is not None and ev.time > down:
                    gaps.append(ev.time - down)
            else:
                last_down[key] = ev.time
        return np.asarray(gaps, dtype=float)

    def contact_durations(self) -> np.ndarray:
        """Per-pair durations between an up event and the next down event."""
        last_up: dict[tuple[int, int], float] = {}
        durations: list[float] = []
        for ev in self.events:
            key = (ev.a, ev.b) if ev.a <= ev.b else (ev.b, ev.a)
            if ev.up:
                last_up[key] = ev.time
            else:
                up = last_up.pop(key, None)
                if up is not None:
                    durations.append(ev.time - up)
        return np.asarray(durations, dtype=float)

    # -- I/O -----------------------------------------------------------------

    def save(self, path: str | Path) -> None:
        """Write as ``time a b CONN up|down`` lines (ONE report style)."""
        with Path(path).open("w") as fh:
            for ev in self.events:
                state = "up" if ev.up else "down"
                fh.write(f"{ev.time:.3f} {ev.a} {ev.b} CONN {state}\n")

    @classmethod
    def load(cls, path: str | Path) -> "ContactTrace":
        """Parse a file produced by :meth:`save`."""
        trace = cls()
        path = Path(path)
        with path.open() as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                parts = line.split()
                if len(parts) != 5 or parts[3] != "CONN":
                    raise TraceFormatError(f"{path}:{lineno}: bad line {line!r}")
                try:
                    t, a, b = float(parts[0]), int(parts[1]), int(parts[2])
                except ValueError as exc:
                    raise TraceFormatError(f"{path}:{lineno}: {exc}") from None
                if not math.isfinite(t):
                    raise TraceFormatError(f"{path}:{lineno}: non-finite time {t}")
                if parts[4] not in ("up", "down"):
                    raise TraceFormatError(f"{path}:{lineno}: bad state {parts[4]!r}")
                trace.append(ContactEvent(t, a, b, parts[4] == "up"))
        return trace


class ContactTraceRecorder:
    """Listener that records a :class:`ContactTrace` during a run."""

    def __init__(self) -> None:
        self.trace = ContactTrace()
        #: The simulator :meth:`subscribe` binds; handlers read its ``now``.
        self._sim: Simulator | Unsubscribed = UNSUBSCRIBED

    def subscribe(self, sim: Simulator) -> None:
        self._sim = sim
        sim.listeners.subscribe("link.up", self._on_up)
        sim.listeners.subscribe("link.down", self._on_down)

    def _on_up(self, a: Node, b: Node) -> None:
        self.trace.append(ContactEvent(self._sim.now, a.id, b.id, True))

    def _on_down(self, a: Node, b: Node) -> None:
        self.trace.append(ContactEvent(self._sim.now, a.id, b.id, False))
