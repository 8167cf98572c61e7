"""Event objects and the central event queue.

Events are ordered by ``(time, priority, sequence)``.  The sequence number is
a monotonically increasing tie-breaker so that two events scheduled for the
same instant at the same priority fire in scheduling order (FIFO), which keeps
runs deterministic.

The heap holds ``(time, priority, seq, event)`` tuples, so ``heapq`` orders
them with C tuple comparisons instead of a Python ``__lt__`` per sift step
(a 3000 s Table II run made 24k of those calls).  ``seq`` is unique, so two
entries never tie and the :class:`Event` itself is never compared.

Cancellation is O(1) lazy: cancelled events stay in the heap but are skipped
on pop.  This is the standard approach for simulators with frequent
reschedules (e.g. transfer completions aborted by link-down).
"""

from __future__ import annotations

import heapq
import itertools
import math
from collections.abc import Callable
from typing import Any

from repro.errors import SchedulingError

#: Default event priority. Lower values fire first at equal times.
PRIORITY_NORMAL = 0
#: Priority for world updates — they run *before* normal events at the same
#: timestamp so that connectivity is current when message logic fires.
PRIORITY_WORLD = -10
#: Priority for fault injection — after the world rewires connectivity but
#: before message logic, so outages/flaps apply to the current link set.
PRIORITY_FAULT = -5
#: Priority for end-of-step bookkeeping (reports sample after message logic).
PRIORITY_REPORT = 10
#: Priority for state snapshots — strictly after *everything* else at the
#: same instant, so a snapshot taken at time T sees every same-time event
#: already applied and every pending event strictly in the future.
PRIORITY_SNAPSHOT = 100


class Event:
    """A scheduled callback.

    Instances are created via :meth:`EventQueue.schedule`; user code holds the
    returned handle only to :meth:`cancel` it.
    """

    __slots__ = ("time", "priority", "seq", "callback", "args", "cancelled")

    def __init__(
        self,
        time: float,
        priority: int,
        seq: int,
        callback: Callable[..., None],
        args: tuple[Any, ...],
    ) -> None:
        self.time = time
        self.priority = priority
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False

    def cancel(self) -> None:
        """Mark the event so it will be skipped when popped."""
        self.cancelled = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        name = getattr(self.callback, "__name__", repr(self.callback))
        return f"<Event t={self.time:.3f} p={self.priority} {name} {state}>"


class EventQueue:
    """Min-heap of :class:`Event` with lazy cancellation."""

    def __init__(self) -> None:
        #: ``(time, priority, seq, event)`` entries (see the module docstring).
        self._heap: list[tuple[float, int, int, Event]] = []
        self._counter = itertools.count()
        self._live = 0

    def __len__(self) -> int:
        return self._live

    def __bool__(self) -> bool:
        return self._live > 0

    def schedule(
        self,
        time: float,
        callback: Callable[..., None],
        *args: Any,
        priority: int = PRIORITY_NORMAL,
    ) -> Event:
        """Schedule *callback(*args)* to fire at *time*.

        Raises :class:`SchedulingError` for non-finite times; scheduling into
        the past is the caller's responsibility (the :class:`Simulator`
        enforces it against its clock).
        """
        if not math.isfinite(time):
            raise SchedulingError(f"event time must be finite, got {time!r}")
        time = float(time)
        seq = next(self._counter)
        event = Event(time, priority, seq, callback, args)
        heapq.heappush(self._heap, (time, priority, seq, event))
        self._live += 1
        return event

    def pop(self) -> Event | None:
        """Pop and return the next live event, or None if empty."""
        return self.pop_due(math.inf)

    def pop_due(self, horizon: float) -> Event | None:
        """Pop and return the next live event if it fires at or before
        *horizon*; else None, and the event stays queued.  Cancelled heads
        are discarded on the way."""
        heap = self._heap
        while heap:
            time, _, _, event = heap[0]
            if event.cancelled:
                heapq.heappop(heap)
            elif time > horizon:
                return None
            else:
                heapq.heappop(heap)
                self._live -= 1
                return event
        return None

    def cancel(self, event: Event) -> None:
        """Cancel a previously scheduled event (idempotent)."""
        if not event.cancelled:
            event.cancel()
            self._live -= 1

    def clear(self) -> None:
        """Drop all pending events."""
        self._heap.clear()
        self._live = 0
