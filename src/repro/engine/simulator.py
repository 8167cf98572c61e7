"""The simulation main loop.

:class:`Simulator` owns the time, the event queue and the listener registry.
Components (the world, message generators, the transfer manager) register
events against it.  The loop is a plain "pop next event, advance clock, fire"
discrete-event loop; the ONE-style time-stepped behaviour comes from the
world registering a recurring update event at :attr:`tick` intervals with
:data:`~repro.engine.events.PRIORITY_WORLD` so movement/connectivity is
refreshed before message logic at the same instant.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any

from repro.engine.events import PRIORITY_NORMAL, Event, EventQueue
from repro.engine.hooks import ListenerRegistry
from repro.errors import SchedulingError, SimulationError


class Unsubscribed:
    """What a collector reads the time from until its ``subscribe`` binds
    it to a simulator: ``now`` is 0, the time of a simulator that has not
    run.  Collectors hold the simulator itself and read its ``now``
    attribute, one read per event."""

    now = 0.0


#: The one :class:`Unsubscribed` instance.
UNSUBSCRIBED = Unsubscribed()


class _Recurring:
    """Book-keeping for one :meth:`Simulator.schedule_every` chain.

    Tracks the next scheduled firing time so a snapshot can re-arm the chain
    at the *exact* float it would have fired at (repeated ``now + interval``
    addition drifts, so next times cannot be recomputed as ``k * interval``).
    """

    __slots__ = ("interval", "callback", "args", "priority", "next_time")

    def __init__(
        self,
        interval: float,
        callback: Callable[..., None],
        args: tuple[Any, ...],
        priority: int,
    ) -> None:
        self.interval = interval
        self.callback = callback
        self.args = args
        self.priority = priority
        #: Time of the next pending firing (NaN once the chain has run past
        #: the horizon and stopped re-arming itself).
        self.next_time = float("nan")


class Simulator:
    """Event loop with a shared time and pub/sub registry.

    Parameters
    ----------
    end_time:
        Simulation horizon in seconds.  Events scheduled past the horizon are
        accepted but never fire.
    """

    def __init__(self, end_time: float) -> None:
        if end_time <= 0:
            raise SchedulingError(f"end_time must be positive, got {end_time}")
        self.end_time = float(end_time)
        #: Current simulation time (seconds): one float that every
        #: component reads, moved forward only by :meth:`advance_to`.
        self.now = 0.0
        self.queue = EventQueue()
        self.listeners = ListenerRegistry()
        self._running = False
        self._events_processed = 0
        #: Named recurring event chains (see :meth:`schedule_every`); used by
        #: :mod:`repro.snapshot` to capture and re-arm periodic callbacks.
        self._recurring: dict[str, _Recurring] = {}

    # -- scheduling -------------------------------------------------------

    def advance_to(self, time: float) -> None:
        """Move the time forward to *time*.

        Raises :class:`SimulationError` on attempts to move backwards — that
        always indicates an event-ordering bug.
        """
        if time < self.now:
            raise SimulationError(
                f"clock cannot move backwards: {time} < {self.now}"
            )
        self.now = float(time)

    @property
    def events_processed(self) -> int:
        """Number of events fired so far (diagnostics / benchmarks)."""
        return self._events_processed

    def schedule_at(
        self,
        time: float,
        callback: Callable[..., None],
        *args: Any,
        priority: int = PRIORITY_NORMAL,
    ) -> Event:
        """Schedule an absolute-time event; must not be in the past."""
        if time < self.now:
            raise SchedulingError(
                f"cannot schedule at {time} (now={self.now})"
            )
        return self.queue.schedule(time, callback, *args, priority=priority)

    def schedule_in(
        self,
        delay: float,
        callback: Callable[..., None],
        *args: Any,
        priority: int = PRIORITY_NORMAL,
    ) -> Event:
        """Schedule an event *delay* seconds from now; delay must be >= 0."""
        if delay < 0:
            raise SchedulingError(f"delay must be non-negative, got {delay}")
        return self.queue.schedule(
            self.now + delay, callback, *args, priority=priority
        )

    def schedule_every(
        self,
        interval: float,
        callback: Callable[..., None],
        *args: Any,
        priority: int = PRIORITY_NORMAL,
        start: float | None = None,
        name: str | None = None,
    ) -> None:
        """Schedule *callback* at fixed intervals until the horizon.

        The callback is re-armed after each firing, so a callback that raises
        stops its own recurrence (and the run).  Passing *name* registers the
        chain in :attr:`_recurring` so snapshot/restore can re-arm it at the
        exact pending firing time.
        """
        if interval <= 0:
            raise SchedulingError(f"interval must be positive, got {interval}")
        first = self.now if start is None else start
        rec = _Recurring(float(interval), callback, args, priority)
        if name is not None:
            self._recurring[name] = rec
        rec.next_time = float(first)
        self.schedule_at(first, self._fire_recurring, rec, priority=priority)

    def _fire_recurring(self, rec: _Recurring) -> None:
        rec.callback(*rec.args)
        next_time = self.now + rec.interval
        if next_time <= self.end_time:
            rec.next_time = next_time
            self.queue.schedule(
                next_time, self._fire_recurring, rec, priority=rec.priority
            )
        else:
            rec.next_time = float("nan")

    def rearm_recurring(self, name: str, next_time: float) -> None:
        """Re-schedule the named recurring chain at *next_time* (restore path).

        A NaN *next_time* means the chain had already run past the horizon
        when the snapshot was taken and stays dead; a finite time past the
        (possibly overridden) horizon is parked as NaN without scheduling.
        """
        rec = self._recurring[name]
        if next_time != next_time:  # NaN: chain was exhausted at capture
            return
        if next_time > self.end_time:
            rec.next_time = float("nan")
            return
        rec.next_time = float(next_time)
        self.schedule_at(next_time, self._fire_recurring, rec, priority=rec.priority)

    # -- running ----------------------------------------------------------

    def run(self, until: float | None = None) -> None:
        """Process events in order until *until* (default: the horizon).

        May be called repeatedly with increasing ``until`` values to run the
        simulation in slices (used by live reports and tests).
        """
        horizon = self.end_time if until is None else min(until, self.end_time)
        self._running = True
        stopped = False
        pop_due = self.queue.pop_due
        try:
            while True:
                if not self._running:
                    stopped = True
                    break
                # One queue call per event: the next live one, if it is due.
                event = pop_due(horizon)
                if event is None:
                    break
                self.advance_to(event.time)
                self._events_processed += 1
                event.callback(*event.args)
        finally:
            self._running = False
        # stop() freezes time where it is; a drained queue runs out the clock.
        if not stopped and self.now < horizon:
            self.advance_to(horizon)

    def stop(self) -> None:
        """Stop the loop after the currently firing event returns."""
        self._running = False
