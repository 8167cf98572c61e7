"""PRoPHET routing (Lindgren et al.) — probabilistic routing baseline.

The paper's related work improves Spray-and-Wait using "the delivery
predictability of nodes" ([19], [20]); PRoPHET is the canonical
delivery-predictability protocol those schemes borrow from, so it is
included as a substrate baseline.

Each node maintains delivery predictabilities P(a, b) ∈ [0, 1]:

* **direct update** on every encounter: ``P += (1 - P) * P_INIT``;
* **aging** with time: ``P *= GAMMA ** Δt`` (Δt in seconds);
* **transitivity** through the encountered peer:
  ``P(a, c) = max(P(a, c), P(a, b) · P(b, c) · BETA)``.

A copy is *replicated* to a peer whose predictability for the destination
exceeds the holder's.  Buffer scheduling/drop stay policy-driven like every
other router here, so PRoPHET also composes with SDSRP and the baselines.
"""

from __future__ import annotations

from repro.net.message import Message
from repro.policies.base import BufferPolicy
from repro.routing.base import MODE_COPY, Router
from repro.world.node import Node

#: Canonical parameters from the PRoPHET internet draft.
P_INIT = 0.75
GAMMA = 0.98  # per aging unit
BETA = 0.25
#: Seconds per aging time unit (the draft leaves this deployment-defined).
AGING_UNIT = 30.0


class ProphetRouter(Router):
    """Delivery-predictability replication."""

    name = "prophet"
    # sleeps_when_idle stays False: transfer_modes ages both tables, so
    # predictabilities move with time alone.

    def __init__(
        self,
        node: Node,
        policy: BufferPolicy,
        p_init: float = P_INIT,
        gamma: float = GAMMA,
        beta: float = BETA,
        aging_unit: float = AGING_UNIT,
    ) -> None:
        super().__init__(node, policy)
        self.p_init = float(p_init)
        self.gamma = float(gamma)
        self.beta = float(beta)
        self.aging_unit = float(aging_unit)
        self._preds: dict[int, float] = {}
        self._last_aged = 0.0

    # -- predictability table ------------------------------------------------

    def predictability(self, dest: int) -> float:
        """Current (aged) delivery predictability for *dest*."""
        self._age()
        return self._preds.get(dest, 0.0)

    def _age(self) -> None:
        now = self.now
        elapsed = now - self._last_aged
        if elapsed <= 0:
            return
        factor = self.gamma ** (elapsed / self.aging_unit)
        for dest in list(self._preds):
            value = self._preds[dest] * factor
            if value < 1e-6:
                del self._preds[dest]
            else:
                self._preds[dest] = value
        self._last_aged = now

    def on_link_up(self, peer: Node) -> None:
        self._age()
        # Direct update for the encountered peer.
        old = self._preds.get(peer.id, 0.0)
        self._preds[peer.id] = old + (1.0 - old) * self.p_init
        # Transitive update through the peer's table.
        peer_router = peer.router
        if isinstance(peer_router, ProphetRouter):
            p_ab = self._preds[peer.id]
            for dest, p_bc in peer_router._preds.items():
                if dest == self.node.id:
                    continue
                candidate = p_ab * p_bc * self.beta
                if candidate > self._preds.get(dest, 0.0):
                    self._preds[dest] = candidate
        super().on_link_up(peer)

    # -- forwarding rule --------------------------------------------------------

    def transfer_modes(self, message: Message, peer: Node) -> str | None:
        peer_router = peer.router
        if not isinstance(peer_router, ProphetRouter):
            return None
        if peer_router.predictability(message.destination) > self.predictability(
            message.destination
        ):
            return MODE_COPY
        return None
