"""Buffer-policy interface.

A policy answers two questions for the router (the paper's two problems,
Sec. III-A):

1. **Scheduling** — in what order should buffered messages be offered to a
   peer?  Higher :meth:`BufferPolicy.send_priority` goes first.
2. **Dropping** — when the buffer overflows on an arrival, which message is
   sacrificed?  The message with the lowest :meth:`BufferPolicy.drop_priority`
   among the buffered (droppable) messages *and the newcomer* is dropped
   (Algorithm 1 of the paper).

The two rankings are separate because they disagree for FIFO: plain
Spray-and-Wait sends the *oldest* message first and also drops the oldest
first.

Policies also receive lifecycle hooks so stateful strategies (SDSRP's
dropped-list gossip and intermeeting estimation) can observe contacts and
drops without the router knowing their internals.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.net.message import Message

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.engine.simulator import Simulator
    from repro.rng import RngFactory
    from repro.world.node import Node


@dataclass
class PolicyContext:
    """What a policy may see of its host when attached."""

    node: "Node"
    sim: "Simulator"
    n_nodes: int
    #: The scenario's seeded stream registry; stochastic policies request
    #: node-scoped streams from it (``rng.stream(f"policy.x.{node.id}")``)
    #: so draws vary with the scenario seed yet stay per-node independent.
    rng: "RngFactory | None" = None


class BufferPolicy(ABC):
    """Scheduling + drop strategy for one node's buffer."""

    #: Registry / display name (set by subclasses).
    name: str = "abstract"

    #: If True, the newcomer competes on drop priority and can be rejected
    #: (Algorithm 1).  If False, room is always made for the newcomer by
    #: dropping buffered messages (ONE's default FIFO behaviour).
    compare_newcomer: bool = True

    def __init__(self) -> None:
        self.ctx: PolicyContext | None = None

    # -- lifecycle -----------------------------------------------------------

    def attach(self, ctx: PolicyContext) -> None:
        """Bind the policy to its node; called once before the run starts."""
        self.ctx = ctx

    # -- the two rankings ------------------------------------------------------

    @abstractmethod
    def send_priority(self, message: Message, now: float) -> float:
        """Higher value = offered to peers earlier."""

    @abstractmethod
    def drop_priority(self, message: Message, now: float) -> float:
        """Lower value = dropped earlier on overflow."""

    # -- hooks (default: no-ops) -----------------------------------------------

    def will_accept(self, message: Message, now: float) -> bool:
        """Policy-level veto on receiving *message* (e.g. dropped-list reject)."""
        return True

    def on_message_added(self, message: Message, now: float) -> None:
        """Called after a message enters the host buffer."""

    def on_message_dropped(self, message: Message, now: float, reason: str) -> None:
        """Called when the host drops a message (reason: overflow/ttl/...)."""

    def on_link_up(self, peer: "Node", now: float) -> None:
        """Called when a contact with *peer* starts (gossip exchange point)."""

    def on_link_down(self, peer: "Node", now: float) -> None:
        """Called when the contact with *peer* ends."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__}>"


class StaticRankPolicy(BufferPolicy):
    """Convenience base for stateless policies with a single ranking.

    Subclasses implement :meth:`priority`; it is used for both scheduling
    (send highest first) and dropping (drop lowest first).
    """

    @abstractmethod
    def priority(self, message: Message, now: float) -> float:
        """The single priority used for both rankings."""

    def send_priority(self, message: Message, now: float) -> float:
        return self.priority(message, now)

    def drop_priority(self, message: Message, now: float) -> float:
        return self.priority(message, now)
