"""A network node: buffer + radio + router + live neighbor set.

Positions are owned by the :class:`~repro.world.world.World` (vectorized
mobility), not by the node, so the node object stays cheap.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.net.buffer import MessageBuffer
from repro.world.radio import Radio

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.routing.base import Router
    from repro.world.world import DueSet


class Node:
    """One DTN node."""

    def __init__(self, node_id: int, radio: Radio, buffer_capacity: int) -> None:
        self.id = int(node_id)
        self.radio = radio
        self.buffer = MessageBuffer(
            buffer_capacity, on_add=self.wake, on_remove=self.wake_neighbors
        )
        self.router: "Router | None" = None
        #: Currently connected peers, keyed by node id.
        self.neighbors: dict[int, "Node"] = {}
        #: True while this node's interface is busy sending one message.
        self.sending = False
        #: True while this node's last full send scan found nothing, or it
        #: had no neighbors, and no change since can have given it a
        #: candidate; the world tick's idle-sender loop skips it meanwhile.
        #: :mod:`repro.world.world` lists what wakes it.
        self.asleep = False
        #: The world's due set (:class:`~repro.world.world.DueSet`), which
        #: :meth:`wake` and :meth:`sleep` keep in step; None until a world
        #: takes this node.
        self.due: "DueSet | None" = None

    def attach_router(self, router: "Router") -> None:
        """Wire the routing protocol driving this node."""
        self.router = router

    def sleep(self) -> None:
        """Record that nothing can be sent until a change wakes this node
        (see :attr:`asleep`)."""
        self.asleep = True
        if self.due is not None:
            self.due.awake.discard(self.id)

    def wake(self) -> None:
        """Make the next tick scan this node for something to send."""
        self.asleep = False
        if self.due is not None:
            self.due.awake.add(self.id)

    def wake_neighbors(self) -> None:
        """Wake every neighbor: a copy left this buffer, so they may now
        offer it here again."""
        for peer in self.neighbors.values():
            peer.wake()

    def is_connected_to(self, other: "Node") -> bool:
        """True while a live link to *other* exists."""
        return other.id in self.neighbors

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Node {self.id} buf={len(self.buffer)} "
            f"nbrs={sorted(self.neighbors)}>"
        )
