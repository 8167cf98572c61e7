"""Fault injector: turns a :class:`~repro.faults.plan.FaultPlan` into events.

The injector layers on top of the :class:`~repro.world.world.World` (its
``set_node_down`` / ``set_node_up`` / ``force_link_down`` fault hooks) and
the :class:`~repro.net.transfer.TransferManager`:

* churn cycles are expanded into absolute-time down/up events at
  :data:`~repro.engine.events.PRIORITY_FAULT` (after the world tick rewires
  connectivity, before message logic);
* link flaps are a Poisson process over the *current* link set;
* transfer faults hook the manager's completion path via
  :attr:`~repro.net.transfer.TransferManager.fault_model`;
* scripted :class:`~repro.faults.plan.FaultEvent` records are scheduled at
  their exact times with no RNG involvement (the chaos harness fuzzes and
  shrinks these).

Every injected fault is emitted on the ``fault.injected`` topic as
``(kind, now)`` so :class:`~repro.reports.metrics.MetricsCollector` can
surface per-kind counters in the run summary.  All randomness comes from the
single generator handed to the constructor (the scenario's ``faults`` RNG
stream), so runs are bit-reproducible.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.engine.events import PRIORITY_FAULT
from repro.errors import FaultInjectionError
from repro.faults.plan import (
    EVENT_LINK_FLAP,
    EVENT_NODE_DOWN,
    EVENT_NODE_UP,
    EVENT_TRANSFER_FAULT,
    FaultEvent,
    FaultPlan,
)
from repro.net.outcomes import DROP_FAULT

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.net.transfer import Transfer
    from repro.world.world import World


#: Fault kinds reported through ``fault.injected`` / ``RunSummary.faults``.
KIND_NODE_DOWN = "node_down"
KIND_NODE_UP = "node_up"
KIND_LINK_FLAP = "link_flap"
KIND_TRANSFER_FAULT = "transfer_fault"
FAULT_KINDS = (KIND_NODE_DOWN, KIND_NODE_UP, KIND_LINK_FLAP, KIND_TRANSFER_FAULT)


class FaultInjector:
    """Schedules and applies the faults a :class:`FaultPlan` declares."""

    def __init__(
        self,
        world: World,
        plan: FaultPlan,
        rng: np.random.Generator,
    ) -> None:
        self.world = world
        self.sim = world.sim
        self.plan = plan
        self.rng = rng
        #: Node ids selected for churn (fixed for the whole run).
        self.churned_nodes: tuple[int, ...] = ()
        #: Per-node random phase of the churn duty cycle, keyed by node id.
        #: Kept so a snapshot restore can replay the exact event times (the
        #: accumulation loop below produces floats that cannot be recomputed
        #: from a cycle index without drift).
        self.churn_phases: dict[int, float] = {}
        #: Time of the next link flap, recorded even past the horizon so a
        #: restore with an extended horizon re-arms the consumed draw.
        self._next_flap_at = float("nan")
        #: Scripted transfer-fault times, sorted, plus a consumed cursor so a
        #: snapshot restore knows which were already spent.
        self._scripted_transfer_times: tuple[float, ...] = tuple(sorted(
            e.time for e in plan.events if e.kind == EVENT_TRANSFER_FAULT
        ))
        self._scripted_transfer_consumed = 0
        self._started = False

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        """Validate the plan against the scenario, derive the fault schedule
        and register all hooks.  Idempotence is deliberately *not* provided:
        a second start would double-inject."""
        if self._started:
            raise FaultInjectionError("fault injector already started")
        self._started = True
        self.plan.validate_for(self.sim.end_time, len(self.world.nodes))
        if self.plan.churn_fraction > 0:
            self._schedule_churn()
        if self.plan.link_flap_rate > 0:
            self._schedule_next_flap()
        if self.plan.transfer_fault_prob > 0 or self._scripted_transfer_times:
            manager = self.world.transfer_manager
            if manager.fault_model is not None:
                raise FaultInjectionError(
                    "transfer manager already has a fault model attached"
                )
            manager.fault_model = self
        self._schedule_scripted(after=float("-inf"))

    def _emit(self, kind: str) -> None:
        self.sim.listeners.emit("fault.injected", kind, self.sim.now)

    # -- node churn ----------------------------------------------------------

    def _schedule_churn(self) -> None:
        n = len(self.world.nodes)
        k = int(round(self.plan.churn_fraction * n))
        if k == 0:
            return
        chosen = self.rng.choice(n, size=k, replace=False)
        self.churned_nodes = tuple(int(i) for i in sorted(chosen))
        for node_id in self.churned_nodes:
            # A random phase staggers outages; the duty cycle itself is fixed.
            period = self.plan.churn_off_time + self.plan.churn_on_time
            self.churn_phases[node_id] = float(self.rng.uniform(0.0, period))
        self._schedule_churn_events(after=float("-inf"))

    def _schedule_churn_events(self, after: float) -> None:
        """Expand the stored phases into down/up events strictly after *after*.

        Restore replays this loop from the captured phases: the repeated
        float addition reproduces the original event times bit-exactly, and
        events at or before the snapshot instant are skipped.
        """
        for node_id in self.churned_nodes:
            t = self.churn_phases[node_id]
            down = True
            while t <= self.sim.end_time:
                if t > after:
                    self.sim.schedule_at(
                        t, self._churn_event, node_id, down, priority=PRIORITY_FAULT
                    )
                t += self.plan.churn_off_time if down else self.plan.churn_on_time
                down = not down

    def _churn_event(self, node_id: int, down: bool) -> None:
        if down:
            self.world.set_node_down(node_id)
            self._emit(KIND_NODE_DOWN)
            if self.plan.churn_wipe_buffer:
                self._wipe_buffer(node_id)
        else:
            self.world.set_node_up(node_id)
            self._emit(KIND_NODE_UP)

    def _wipe_buffer(self, node_id: int) -> None:
        node = self.world.nodes[node_id]
        if node.router is None:
            return
        # All the node's transfers were aborted when its links dropped, so
        # nothing is pinned; the guard keeps a partial wipe from crashing.
        for message in node.buffer.messages():
            if not node.buffer.is_pinned(message.msg_id):
                node.router.drop_message(message, DROP_FAULT)

    # -- scripted events -----------------------------------------------------

    def _schedule_scripted(self, after: float) -> None:
        """Schedule the plan's :class:`FaultEvent` records strictly after
        *after* (snapshot restore passes the capture instant, exactly like
        :meth:`_schedule_churn_events`).

        Transfer-fault events are *not* scheduled here: they fire through the
        :meth:`transfer_fails` hook when a transfer completes, tracked by the
        consumed cursor instead of the event queue.
        """
        for index, event in enumerate(self.plan.events):
            if event.kind == EVENT_TRANSFER_FAULT:
                continue
            if event.time > after and event.time <= self.sim.end_time:
                self.sim.schedule_at(
                    event.time,
                    self._scripted_event,
                    index,
                    priority=PRIORITY_FAULT,
                )

    def _scripted_event(self, index: int) -> None:
        event = self.plan.events[index]
        if event.kind == EVENT_NODE_DOWN:
            self.world.set_node_down(event.node)
            self._emit(KIND_NODE_DOWN)
            if self.plan.churn_wipe_buffer:
                self._wipe_buffer(event.node)
        elif event.kind == EVENT_NODE_UP:
            self.world.set_node_up(event.node)
            self._emit(KIND_NODE_UP)
        elif event.kind == EVENT_LINK_FLAP:
            # Deterministic pick: the event's index field selects a link from
            # the sorted current link set.  No RNG draw, so scripted flaps
            # leave the fault stream untouched (replay/shrink stability).
            links = sorted(self.world.links)
            if links:
                i, j = links[event.node % len(links)]
                if self.world.force_link_down(i, j):
                    self._emit(KIND_LINK_FLAP)

    # -- link flaps ----------------------------------------------------------

    def _schedule_next_flap(self) -> None:
        delay = float(self.rng.exponential(1.0 / self.plan.link_flap_rate))
        self._next_flap_at = self.sim.now + delay
        if self.sim.now + delay <= self.sim.end_time:
            self.sim.schedule_in(
                delay, self._flap_event, priority=PRIORITY_FAULT
            )

    def rearm_flap(self) -> None:
        """Re-schedule the pending flap event (snapshot restore)."""
        when = self._next_flap_at
        if when == when and when <= self.sim.end_time:
            self.sim.schedule_at(when, self._flap_event, priority=PRIORITY_FAULT)

    def _flap_event(self) -> None:
        links = sorted(self.world.links)
        if links:
            i, j = links[int(self.rng.integers(len(links)))]
            if self.world.force_link_down(i, j):
                self._emit(KIND_LINK_FLAP)
        self._schedule_next_flap()

    # -- transfer faults (TransferManager.fault_model protocol) --------------

    def transfer_fails(self, transfer: "Transfer") -> bool:
        """Decide whether *transfer* was truncated on the air.

        Scripted transfer faults are consumed first: the earliest unconsumed
        scripted time at or before ``sim.now`` truncates this transfer.  The
        probabilistic model only draws from the RNG when its probability is
        non-zero, so a plan carrying scripted events alone never perturbs the
        fault stream.
        """
        if (
            self._scripted_transfer_consumed < len(self._scripted_transfer_times)
            and self._scripted_transfer_times[self._scripted_transfer_consumed]
            <= self.sim.now
        ):
            self._scripted_transfer_consumed += 1
            self._emit(KIND_TRANSFER_FAULT)
            return True
        if self.plan.transfer_fault_prob <= 0:
            return False
        if self.rng.random() >= self.plan.transfer_fault_prob:
            return False
        self._emit(KIND_TRANSFER_FAULT)
        return True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<FaultInjector plan={self.plan}>"
