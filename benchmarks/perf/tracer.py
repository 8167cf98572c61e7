"""Outside-in tracer: times calls into each simulator layer from outside.

No file under ``src/`` knows about it.  :meth:`Tracer.class_hooks` wraps
``World.update`` at class level (the recurring tick event binds the method
while the scenario is built, so it must be wrapped before
``build_scenario``); :meth:`Tracer.attach` then replaces the public methods
of the built instances with timing wrappers and subscribes counting
listeners.  Each wrapper pushes a span on one stack and is charged its
*self* time: its duration minus the time its wrapped children took.  All
aggregates stay in memory; :meth:`Tracer.layer_metrics` reads them out when
the run ends.
"""

from __future__ import annotations

import statistics
import time
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from typing import Any

#: Listener topics counted per run: topic -> metric counter name.
COUNTED_TOPICS = {
    "link.up": "world.links.up",
    "link.down": "world.links.down",
    "transfer.started": "net.transfer.started",
    "transfer.aborted": "net.transfer.aborted",
    "message.relayed": "net.transfer.relayed",
    "message.dropped": "net.drops",
}

ROUTER_METHODS = (
    "try_send", "select_next", "will_accept", "purge_expired", "receive",
    "on_link_up", "on_link_down", "create_message",
)
POLICY_METHODS = ("send_priority", "drop_priority", "will_accept", "on_link_up")


class Tracer:
    """Span-stack self-time accounting over wrapped callables."""

    def __init__(self) -> None:
        #: span name -> [calls, self seconds]
        self.stats: dict[str, list[Any]] = {}
        self.counts: dict[str, int] = {name: 0 for name in COUNTED_TOPICS.values()}
        self.counts["routing.select_next.hits"] = 0
        self.counts["world.contacts.pairs.found"] = 0
        #: Inclusive seconds of each ``World.update`` call (one per tick).
        self.tick_seconds: list[float] = []
        # Base frame accumulates the inclusive time of top-level spans,
        # which equals the sum of every span's self time.
        self._stack: list[float] = [0.0]

    def wrap(
        self,
        name: str,
        fn: Callable[..., Any],
        after: Callable[[Any, float], None] | None = None,
    ) -> Callable[..., Any]:
        """*fn* wrapped in a span named *name*; *after(result, seconds)*
        runs once the span has closed."""
        stat = self.stats.setdefault(name, [0, 0.0])
        stack = self._stack
        clock = time.perf_counter

        def traced(*args: Any, **kwargs: Any) -> Any:
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = stack.pop()
                stack[-1] += elapsed
                stat[0] += 1
                stat[1] += elapsed - children
            if after is not None:
                after(result, elapsed)
            return result

        return traced

    @contextmanager
    def class_hooks(self) -> Iterator[None]:
        """Wrap ``World.update`` for the duration of the block."""
        from repro.world.world import World

        original = World.update
        World.update = self.wrap(  # type: ignore[method-assign]
            "world.update", original,
            after=lambda _result, seconds: self.tick_seconds.append(seconds),
        )
        try:
            yield
        finally:
            World.update = original  # type: ignore[method-assign]

    def _count(self, key: str) -> None:
        self.counts[key] += 1

    def attach(self, built: Any) -> None:
        """Wrap the layers of a built simulation (see module docstring)."""
        for node in built.nodes:
            router = node.router
            if router is None:
                continue
            for method in ROUTER_METHODS:
                after = self._on_select if method == "select_next" else None
                setattr(router, method, self.wrap(
                    f"routing.{method}", getattr(router, method), after
                ))
            policy = router.policy
            for method in POLICY_METHODS:
                setattr(policy, method, self.wrap(
                    f"policies.{method}", getattr(policy, method)
                ))
        world = built.world
        world.detector.pairs = self.wrap(
            "world.contacts.pairs", world.detector.pairs, self._on_pairs
        )
        world.mobility.advance = self.wrap(
            "mobility.advance", world.mobility.advance
        )
        manager = world.transfer_manager
        manager.start = self.wrap("net.transfer.start", manager.start)
        manager.abort_for_link = self.wrap(
            "net.transfer.abort_for_link", manager.abort_for_link
        )
        listeners = built.sim.listeners
        for topic, key in COUNTED_TOPICS.items():
            listeners.subscribe(topic, lambda *_args, key=key: self._count(key))
        listeners.emit = self.wrap("engine.emit", listeners.emit)

    def _on_select(self, result: Any, _seconds: float) -> None:
        if result is not None:
            self._count("routing.select_next.hits")

    def _on_pairs(self, result: Any, _seconds: float) -> None:
        self.counts["world.contacts.pairs.found"] += len(result)

    def layer_metrics(self, wall_s: float, events: int) -> dict[str, float]:
        """Per-layer numbers of the traced run, by benchmark metric name."""
        out: dict[str, float] = {}
        for name, (calls, self_s) in sorted(self.stats.items()):
            out[f"{name}.calls"] = calls
            out[f"{name}.self_s"] = self_s
        out.update(self.counts)
        select_calls = out["routing.select_next.calls"]
        out["routing.select_next.hit_ratio"] = (
            out["routing.select_next.hits"] / select_calls if select_calls else 0.0
        )
        started = out["net.transfer.started"]
        out["net.transfer.useful_ratio"] = (
            out["net.transfer.relayed"] / started if started else 0.0
        )
        # One number for both rankings: drop priorities are never needed
        # on a fleet without buffer pressure, and a time that is exactly 0
        # on every run is no measurement.
        out["policies.priority.self_s"] = (
            out["policies.send_priority.self_s"] + out["policies.drop_priority.self_s"]
        )
        ticks_ms = [s * 1000.0 for s in self.tick_seconds]
        out["world.update.p50_ms"] = statistics.median(ticks_ms)
        out["world.update.p99_ms"] = statistics.quantiles(ticks_ms, n=100)[98]
        out["engine.events"] = events
        # Share of the run spent inside any wrapped call.
        out["bench.trace_coverage"] = self._stack[0] / wall_s
        return out
