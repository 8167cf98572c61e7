"""First-Contact routing.

A single copy hops to the first encountered node (the sender deletes its
copy after a successful forward).  A classic single-copy baseline: cheap,
low delivery ratio; bounds the benefit of multi-copy schemes from below.
"""

from __future__ import annotations

from repro.net.message import Message
from repro.routing.base import MODE_MOVE, Router
from repro.world.node import Node


class FirstContactRouter(Router):
    """Forward (move) each message to any available peer."""

    name = "first-contact"
    sleeps_when_idle = True

    def transfer_modes(self, message: Message, peer: Node) -> str | None:
        return MODE_MOVE
