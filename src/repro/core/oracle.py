"""Global-knowledge infection oracle (ablation).

The paper notes most prior work "make[s] a strong assumption that the
unknown parameters can be obtained through the centralized control channel"
(Sec. III-C) and contributes distributed estimators instead.  This oracle
implements that strong assumption — exact :math:`m_i`, :math:`n_i`,
:math:`d_i` maintained from simulator events — so the cost of the paper's
estimators can be quantified (``sdsrp-oracle`` vs ``sdsrp`` in the ablation
benchmarks).  The scenario builder subscribes one per fleet for the
``-oracle`` policy names, and the policy then takes :math:`m_i` and
:math:`n_i` from it; λ still comes from the intermeeting estimator.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.engine.simulator import Simulator
from repro.net.message import Message
from repro.net.outcomes import ReceiveOutcome
from repro.world.node import Node


@dataclass
class _InfectionState:
    source: int
    #: nodes currently holding a copy (includes the source while it holds).
    holders: set[int] = field(default_factory=set)
    #: nodes (excluding source) that have ever held/seen a copy.
    seen: set[int] = field(default_factory=set)
    #: number of copy-drop events.
    drops: int = 0


class GlobalInfectionOracle:
    """Tracks exact per-message infection state from listener events."""

    def __init__(self) -> None:
        self._state: dict[str, _InfectionState] = {}

    # -- wiring ----------------------------------------------------------------

    def subscribe(self, sim: Simulator) -> None:
        """Attach to a simulator's listener registry."""
        sim.listeners.subscribe("message.created", self._on_created)
        sim.listeners.subscribe("message.relayed", self._on_relayed)
        sim.listeners.subscribe("message.dropped", self._on_dropped)

    # -- event handlers -----------------------------------------------------------

    def _on_created(self, message: Message) -> None:
        state = _InfectionState(source=message.source)
        state.holders.add(message.source)
        self._state[message.msg_id] = state

    def _on_relayed(
        self, message: Message, sender: Node, receiver: Node, outcome: object
    ) -> None:
        state = self._state.get(message.msg_id)
        if state is None:
            return
        if receiver.id != state.source:
            state.seen.add(receiver.id)
        if outcome == ReceiveOutcome.ACCEPTED:
            state.holders.add(receiver.id)
        elif outcome == ReceiveOutcome.DELIVERED:
            # The delivering sender's copy is spent (router removes it) and
            # the destination absorbs its copy.
            state.holders.discard(sender.id)
        elif outcome == ReceiveOutcome.REJECTED_OVERFLOW:
            # The newcomer copy was destroyed on arrival; the drop event for
            # it also fires, but the receiver never held it — pre-discard so
            # _on_dropped's discard is a no-op for the holder set.
            pass

    def _on_dropped(self, message: Message, node: Node, reason: str) -> None:
        state = self._state.get(message.msg_id)
        if state is None:
            return
        state.holders.discard(node.id)
        state.drops += 1

    # -- queries ---------------------------------------------------------------

    def m_seen(self, msg_id: str) -> int:
        """Exact m_i — distinct non-source nodes that received a copy."""
        state = self._state.get(msg_id)
        return 0 if state is None else len(state.seen)

    def n_holders(self, msg_id: str) -> int:
        """Exact n_i — nodes currently holding a copy (min 1 for ranking)."""
        state = self._state.get(msg_id)
        return 1 if state is None else max(1, len(state.holders))

    def drop_count(self, msg_id: str) -> int:
        """Exact number of drop events for the message."""
        state = self._state.get(msg_id)
        return 0 if state is None else state.drops
