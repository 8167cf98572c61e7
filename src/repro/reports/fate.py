"""Per-message fate report (ONE's ``MessageStatsReport`` granularity).

Tracks every message's life: creation, relays, drops, delivery (time, hops,
latency).  Exports to CSV for offline analysis and feeds the examples that
inspect *which* messages a policy sacrifices.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path

from repro.engine.simulator import UNSUBSCRIBED, Simulator, Unsubscribed
from repro.net.message import Message
from repro.net.outcomes import ReceiveOutcome
from repro.world.node import Node


@dataclass
class MessageFate:
    """Everything that happened to one logical message."""

    msg_id: str
    source: int
    destination: int
    size: int
    created_at: float
    ttl: float
    initial_copies: int
    relays: int = 0
    drops: dict[str, int] = field(default_factory=dict)
    delivered_at: float | None = None
    delivery_hops: int | None = None

    @property
    def delivered(self) -> bool:
        return self.delivered_at is not None

    @property
    def latency(self) -> float | None:
        if self.delivered_at is None:
            return None
        return self.delivered_at - self.created_at


class MessageFateReport:
    """Collects a :class:`MessageFate` per created message."""

    def __init__(self) -> None:
        self.fates: dict[str, MessageFate] = {}
        #: The simulator :meth:`subscribe` binds; handlers read its ``now``.
        self._sim: Simulator | Unsubscribed = UNSUBSCRIBED

    def subscribe(self, sim: Simulator) -> None:
        self._sim = sim
        sim.listeners.subscribe("message.created", self._on_created)
        sim.listeners.subscribe("message.relayed", self._on_relayed)
        sim.listeners.subscribe("message.delivered", self._on_delivered)
        sim.listeners.subscribe("message.dropped", self._on_dropped)

    # -- handlers ------------------------------------------------------------

    def _on_created(self, message: Message) -> None:
        self.fates[message.msg_id] = MessageFate(
            msg_id=message.msg_id,
            source=message.source,
            destination=message.destination,
            size=message.size,
            created_at=message.created_at,
            ttl=message.ttl,
            initial_copies=message.initial_copies,
        )

    def _fate(self, message: Message) -> MessageFate | None:
        return self.fates.get(message.msg_id)

    def _on_relayed(self, message: Message, sender: Node, receiver: Node,
                    outcome: ReceiveOutcome) -> None:
        fate = self._fate(message)
        if fate is not None:
            fate.relays += 1

    def _on_delivered(self, message: Message, sender: Node, receiver: Node) -> None:
        fate = self._fate(message)
        if fate is not None and fate.delivered_at is None:
            fate.delivered_at = self._sim.now
            fate.delivery_hops = message.hop_count

    def _on_dropped(self, message: Message, node: Node, reason: str) -> None:
        fate = self._fate(message)
        if fate is not None:
            fate.drops[reason] = fate.drops.get(reason, 0) + 1

    # -- analysis --------------------------------------------------------------

    def delivered_fates(self) -> list[MessageFate]:
        return [f for f in self.fates.values() if f.delivered]

    def undelivered_fates(self) -> list[MessageFate]:
        return [f for f in self.fates.values() if not f.delivered]

    # -- export -----------------------------------------------------------------

    _CSV_FIELDS = (
        "msg_id", "source", "destination", "size", "created_at", "ttl",
        "initial_copies", "relays", "drops_total", "delivered",
        "delivered_at", "delivery_hops", "latency",
    )

    def write_csv(self, path: str | Path) -> None:
        """One row per created message."""
        with Path(path).open("w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=self._CSV_FIELDS)
            writer.writeheader()
            for fate in self.fates.values():
                writer.writerow(
                    {
                        "msg_id": fate.msg_id,
                        "source": fate.source,
                        "destination": fate.destination,
                        "size": fate.size,
                        "created_at": fate.created_at,
                        "ttl": fate.ttl,
                        "initial_copies": fate.initial_copies,
                        "relays": fate.relays,
                        "drops_total": sum(fate.drops.values()),
                        "delivered": int(fate.delivered),
                        "delivered_at": fate.delivered_at,
                        "delivery_hops": fate.delivery_hops,
                        "latency": fate.latency,
                    }
                )
