"""Message-level metrics (paper Sec. IV-A).

Definitions, matching the paper and ONE's ``MessageStatsReport``:

* **delivery ratio** — unique messages delivered / messages generated.
* **average hopcounts** — mean hop count of the delivering copies.
* **overhead ratio** — (relayed − delivered) / delivered, where *relayed*
  counts completed transfers (including newcomers that subsequently lost the
  receiving node's drop decision, as ONE does) and *delivered* counts unique
  deliveries.
"""

from __future__ import annotations

import math

from repro.engine.simulator import UNSUBSCRIBED, Simulator, Unsubscribed
from repro.net.message import Message
from repro.net.outcomes import ReceiveOutcome
from repro.world.node import Node


class MetricsCollector:
    """Subscribes to simulator topics and accumulates the paper's metrics."""

    def __init__(self) -> None:
        self.created = 0
        self.delivered = 0
        self.relayed = 0
        self.relayed_accepted = 0
        self.aborted = 0
        self.started = 0
        self.drops_by_reason: dict[str, int] = {}
        self.faults_by_kind: dict[str, int] = {}
        self.hop_counts: list[int] = []
        #: Creation-to-delivery delay of each delivery, in delivery order.
        self.latencies: list[float] = []
        #: The simulator :meth:`subscribe` binds; handlers read its ``now``.
        self._sim: Simulator | Unsubscribed = UNSUBSCRIBED

    # -- wiring ----------------------------------------------------------------

    def subscribe(self, sim: Simulator) -> None:
        """Attach to a simulator's listener registry."""
        self._sim = sim
        sim.listeners.subscribe("message.created", self._on_created)
        sim.listeners.subscribe("message.relayed", self._on_relayed)
        sim.listeners.subscribe("message.delivered", self._on_delivered)
        sim.listeners.subscribe("message.dropped", self._on_dropped)
        sim.listeners.subscribe("transfer.started", self._on_started)
        sim.listeners.subscribe("transfer.aborted", self._on_aborted)
        sim.listeners.subscribe("fault.injected", self._on_fault)

    # -- handlers ----------------------------------------------------------------

    def _on_created(self, message: Message) -> None:
        self.created += 1

    def _on_relayed(
        self, message: Message, sender: Node, receiver: Node, outcome: object
    ) -> None:
        self.relayed += 1
        if outcome != ReceiveOutcome.REJECTED_OVERFLOW:
            # Excludes newcomers destroyed by the receiving drop policy.
            self.relayed_accepted += 1

    def _on_delivered(self, message: Message, sender: Node, receiver: Node) -> None:
        self.delivered += 1
        self.hop_counts.append(message.hop_count)
        # Every copy carries its message's creation time: split_child and
        # forward_clone copy it.
        self.latencies.append(self._sim.now - message.created_at)

    def _on_dropped(self, message: Message, node: Node, reason: str) -> None:
        self.drops_by_reason[reason] = self.drops_by_reason.get(reason, 0) + 1

    def _on_started(self, transfer: object) -> None:
        self.started += 1

    def _on_aborted(self, transfer: object) -> None:
        self.aborted += 1

    def _on_fault(self, kind: str, now: float) -> None:
        self.faults_by_kind[kind] = self.faults_by_kind.get(kind, 0) + 1

    # -- derived metrics -------------------------------------------------------------

    @property
    def delivery_ratio(self) -> float:
        """Delivered / created (0 when nothing was generated)."""
        return self.delivered / self.created if self.created else 0.0

    @property
    def average_hopcount(self) -> float:
        """Mean hops of delivering copies (nan when nothing delivered)."""
        if not self.hop_counts:
            return math.nan
        return sum(self.hop_counts) / len(self.hop_counts)

    @property
    def average_latency(self) -> float:
        """Mean creation-to-delivery delay (nan when nothing delivered)."""
        if not self.latencies:
            return math.nan
        return sum(self.latencies) / len(self.latencies)

    @property
    def overhead_ratio(self) -> float:
        """(relayed − delivered) / delivered (nan when nothing delivered)."""
        if self.delivered == 0:
            return math.nan
        return (self.relayed - self.delivered) / self.delivered

    @property
    def drops_total(self) -> int:
        return sum(self.drops_by_reason.values())

    @property
    def faults_total(self) -> int:
        return sum(self.faults_by_kind.values())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Metrics created={self.created} delivered={self.delivered} "
            f"relayed={self.relayed} drops={self.drops_by_reason}>"
        )
