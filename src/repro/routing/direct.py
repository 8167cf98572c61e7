"""Direct-Delivery routing.

The source holds its single copy until it meets the destination — the
degenerate L=1 corner of Spray-and-Wait and the lower bound on overhead
(exactly 0 by the paper's overhead-ratio definition).
"""

from __future__ import annotations

from repro.net.message import Message
from repro.routing.base import Router
from repro.world.node import Node


class DirectDeliveryRouter(Router):
    """Source-to-destination transfers only."""

    name = "direct-delivery"
    sleeps_when_idle = True

    def transfer_modes(self, message: Message, peer: Node) -> str | None:
        return None  # deliveries are handled by the base class
