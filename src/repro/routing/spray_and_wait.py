"""Binary Spray-and-Wait (Spyropoulos et al. [8]) — the paper's protocol.

* **Spray phase** (``copies > 1``): on contact with a node lacking the
  message, hand over ``floor(copies/2)`` tokens and keep ``ceil(copies/2)``.
* **Wait phase** (``copies == 1``): direct transmission only — the copy is
  offered solely to its destination.

Scheduling order among sprayable messages and the overflow drop decision are
delegated to the attached buffer policy, which is exactly the axis the paper
varies (FIFO / SnW-O / SnW-C / SDSRP).

``source_spray=True`` switches to vanilla (non-binary) spray-and-wait, where
only the source hands out single-token copies; included for ablation.
"""

from __future__ import annotations

from repro.net.message import Message
from repro.policies.base import BufferPolicy
from repro.routing.base import MODE_COPY, MODE_SPLIT, Router
from repro.world.node import Node


class SprayAndWaitRouter(Router):
    """Spray-and-Wait with pluggable buffer management."""

    name = "spray-and-wait"
    sleeps_when_idle = True  # eligibility reads token counts, never the clock

    def __init__(
        self, node: Node, policy: BufferPolicy, source_spray: bool = False
    ) -> None:
        super().__init__(node, policy)
        self.source_spray = source_spray

    def transfer_modes(self, message: Message, peer: Node) -> str | None:
        if not message.can_spray:
            return None  # wait phase: only direct delivery (base class)
        if self.source_spray:
            # Vanilla spray: only the source distributes, one token at a time.
            if message.source != self.node.id:
                return None
            return MODE_COPY if message.copies > 1 else None
        return MODE_SPLIT

    def after_transfer(self, message: Message, peer: Node, mode: str, outcome) -> None:
        if mode == MODE_COPY and message.msg_id in self.node.buffer:
            # Vanilla spray bookkeeping: one token left the source.
            message.copies = max(1, message.copies - 1)
        super().after_transfer(message, peer, mode, outcome)
