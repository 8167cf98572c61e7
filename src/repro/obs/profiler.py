"""Per-subsystem wall-time accounting (profiling wrappers).

A :class:`PhaseProfiler` hands out timing wrappers: :meth:`PhaseProfiler.wrap`
returns a callable that runs the wrapped one inside a span named after its
phase.  No simulator module knows about it.  When a config asks for a
profile, the scenario builder (:mod:`repro.experiments.runner`) installs the
wrappers as instance attributes over the calls each phase covers, so an
unprofiled run carries no hook at all.  Spans nest on one flat stack and
each phase is charged its *self* time only, so the per-phase seconds sum
to (approximately) the wrapped wall time with no double counting: a policy
decision made while completing a transfer is charged to ``policy``, not
twice.

Wall-clock reads here use :func:`time.perf_counter`, which is explicitly
allowed by reprolint REP002: profiling output is diagnostic and never feeds
back into simulation state, so runs stay bit-reproducible with profiling on
(enforced by ``tests/obs/test_observation_only.py``).

The phases are ``movement``, ``contacts``, ``links``, ``routing``,
``policy``, ``transfer``, ``traffic`` and ``observers``; which calls each
covers is decided in one place, the builder's ``_install_profiler``
(tabulated in ``docs/observability.md``).
"""

from __future__ import annotations

from collections.abc import Callable
from functools import partial
from time import perf_counter
from typing import Any

__all__ = ["PhaseProfiler"]


class PhaseProfiler:
    """Accumulates self-time wall seconds per named phase.

    Not thread-safe — one profiler per simulator, driven by the (single
    threaded) event loop.
    """

    def __init__(self) -> None:
        #: Exclusive (self) seconds per phase.
        self.self_seconds: dict[str, float] = {}
        #: Number of times each phase was entered.
        self.calls: dict[str, int] = {}
        #: One entry per open span: the inclusive seconds of its children.
        self._stack: list[float] = []

    def wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """*fn* timed as phase *name*: its duration minus its wrapped
        children's is charged to *name*, and the whole of it to the
        enclosing span, if any.

        A partial allocates three tracked objects per wrapped method
        where a closure over the same state allocates nine; at one
        wrapper per router method on a 10k-node fleet, a closure's
        extra objects set off a full garbage collection inside the run.
        """
        return partial(_timed, self, name, fn)

    def total_seconds(self) -> float:
        """Sum of all phases' self time (instrumented wall time)."""
        return sum(self.self_seconds.values())

    def as_dict(self) -> dict[str, float]:
        """Phase -> self seconds, sorted by phase name (JSON-stable)."""
        return {name: self.self_seconds[name] for name in sorted(self.self_seconds)}

    def table(self) -> str:
        """Human-readable per-phase breakdown (largest first)."""
        total = self.total_seconds()
        lines = [f"{'phase':<12} {'self (s)':>10} {'calls':>9} {'share':>7}"]
        for name, secs in sorted(
            self.self_seconds.items(), key=lambda kv: -kv[1]
        ):
            share = secs / total if total > 0 else 0.0
            lines.append(
                f"{name:<12} {secs:>10.4f} {self.calls[name]:>9} {share:>6.1%}"
            )
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<PhaseProfiler {self.as_dict()}>"


def _timed(
    profiler: PhaseProfiler, name: str, fn: Callable[..., Any],
    *args: Any, **kwargs: Any,
) -> Any:
    """``fn(*args, **kwargs)`` as one span of phase *name* (see
    :meth:`PhaseProfiler.wrap`); the stack holds, per open span, the
    inclusive seconds of its children."""
    stack = profiler._stack
    stack.append(0.0)
    start = perf_counter()
    try:
        return fn(*args, **kwargs)
    finally:
        elapsed = perf_counter() - start
        children = stack.pop()
        if stack:
            stack[-1] += elapsed
        seconds = profiler.self_seconds
        seconds[name] = seconds.get(name, 0.0) + elapsed - children
        calls = profiler.calls
        calls[name] = calls.get(name, 0) + 1
