"""The SDSRP buffer policy (paper Algorithm 1 + Sec. III-B/C).

On every ranking request the policy maps each message's ``(C_i, R_i)`` to
the priority :math:`U_i` (Eq. 10, or its Eq. 13 Taylor truncation) using:

* λ from the fleet-shared Def. 2 intermeeting estimator, scaled by Eq. 3
  (:mod:`repro.core.intermeeting`);
* :math:`m_i` from the copy's spray-time lineage (Eq. 15);
* :math:`d_i` from the gossiped dropped lists (Fig. 5), merged at each
  contact;
* :math:`n_i = m_i + 1 - d_i` (Eq. 14), floored at 1 — the ranking needs a
  live copy to exist (this one).

The router then sends the highest-priority eligible message first and, on
overflow, drops the lowest-priority message among the buffer *and the
newcomer* — exactly Algorithm 1.

When the fleet's :class:`SdsrpShared` carries a
:class:`repro.core.oracle.GlobalInfectionOracle` (the ``-oracle`` policy
names), exact global knowledge replaces the estimates of :math:`m_i` and
:math:`n_i`, quantifying their error (ablation); λ still comes from the
estimator.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core import params as P
from repro.core.dropped_list import DroppedListStore
from repro.core.intermeeting import MinIntermeetingEstimator
from repro.core.oracle import GlobalInfectionOracle
from repro.core.params import SdsrpParams
from repro.core.priority import (
    priority_closed_form_scalar,
    priority_taylor_scalar,
)
from repro.core.spray_tree import estimate_infected
from repro.net.message import Message
from repro.net.outcomes import DROP_OVERFLOW
from repro.policies.base import BufferPolicy, PolicyContext
from repro.world.node import Node


@dataclass
class SdsrpShared:
    """State shared by all SDSRP nodes of one scenario.

    The scenario builder makes one per fleet and hands it to every node's
    policy: the λ estimator, the parameters, and the (m, n) source — the
    infection oracle when it is set, the distributed estimates otherwise.
    """

    estimator: MinIntermeetingEstimator
    oracle: GlobalInfectionOracle | None = None
    params: SdsrpParams = field(default_factory=SdsrpParams)

    @classmethod
    def for_fleet(
        cls,
        n_nodes: int,
        params: SdsrpParams | None = None,
        oracle: GlobalInfectionOracle | None = None,
    ) -> "SdsrpShared":
        """Fresh shared state for an *n_nodes* fleet."""
        return cls(
            estimator=MinIntermeetingEstimator(n_nodes),
            oracle=oracle,
            params=params or SdsrpParams(),
        )


class SdsrpPolicy(BufferPolicy):
    """Scheduling and Drop Strategy on spray and wait Routing Protocol."""

    name = "sdsrp"
    compare_newcomer = True  # Algorithm 1: the newcomer competes

    def __init__(self, shared: SdsrpShared) -> None:
        super().__init__()
        self.params = shared.params
        self._estimator = shared.estimator
        self._oracle = shared.oracle
        self.dropped: DroppedListStore | None = None
        self._n_nodes = 0
        #: The host node's id, read by the link hooks on every contact.
        self._node_id = -1

    # -- lifecycle -----------------------------------------------------------

    def attach(self, ctx: PolicyContext) -> None:
        super().attach(ctx)
        self._n_nodes = ctx.n_nodes
        self._node_id = ctx.node.id
        self.dropped = DroppedListStore(ctx.node.id)

    # -- estimation plumbing ------------------------------------------------------

    def _infection(self, message: Message, now: float) -> tuple[int, int]:
        """(m_i, n_i) for *message*: exact from the fleet's oracle when it
        has one, else Eq. 15 and Eq. 14."""
        assert self.dropped is not None
        oracle = self._oracle
        if oracle is not None:
            return oracle.m_seen(message.msg_id), oracle.n_holders(message.msg_id)
        m = estimate_infected(
            message.spray_times,
            now,
            self._estimator.mean_min_intermeeting(),
            self._n_nodes,
            extrapolate=self.params.extrapolate_spray_tree,
        )
        d = self.dropped.count_drops(message.msg_id)
        n = max(1, m + 1 - d)  # Eq. 14, floored: this copy exists
        return m, n

    # -- the priority (both rankings, Algorithm 1) ----------------------------------

    def _priority_copies(self, message: Message) -> int:
        """The C_i fed into Eqs. 6-13; GBSD neutralizes it to 1."""
        return message.copies

    def priority(self, message: Message, now: float) -> float:
        """U_i (Eq. 10 / Eq. 13) for *message* as held by this node."""
        m, n = self._infection(message, now)
        lam = self._estimator.rate()
        c = self._priority_copies(message)
        r = message.remaining_ttl(now)
        if self.params.priority_form == P.FORM_CLOSED:
            return priority_closed_form_scalar(c, r, m, n, lam, self._n_nodes)
        return priority_taylor_scalar(
            c, r, m, n, lam, self._n_nodes, terms=self.params.taylor_terms
        )

    def send_priority(self, message: Message, now: float) -> float:
        return self.priority(message, now)

    def drop_priority(self, message: Message, now: float) -> float:
        return self.priority(message, now)

    # -- hooks ------------------------------------------------------------------

    def will_accept(self, message: Message, now: float) -> bool:
        assert self.dropped is not None
        rule = self.params.reject_rule
        if rule == P.REJECT_OWN:
            return not self.dropped.has_dropped(message.msg_id)
        if rule == P.REJECT_ANY:
            return not self.dropped.seen_by_any(message.msg_id)
        return True

    def on_message_dropped(self, message: Message, now: float, reason: str) -> None:
        if reason == DROP_OVERFLOW:
            assert self.dropped is not None
            self.dropped.record_drop(message.msg_id, now, message.expires_at())

    def on_link_up(self, peer: Node, now: float) -> None:
        # Only attach() sets ``dropped``, so it is the attached check here
        # and in on_link_down.
        dropped = self.dropped
        assert dropped is not None, "policy used before attach()"
        # Both endpoints feed the estimator: each samples its own gaps.
        self._estimator.observe_link_up(self._node_id, now)
        # Gossip: adopt the peer's newer dropped-list records (Fig. 5).
        peer_router = peer.router
        peer_policy = peer_router.policy if peer_router is not None else None
        if isinstance(peer_policy, SdsrpPolicy) and peer_policy.dropped is not None:
            dropped.prune(now)
            # A store with no record of a drop has nothing to adopt.
            if peer_policy.dropped.holds_drops:
                dropped.merge_from(peer_policy.dropped)

    def on_link_down(self, peer: Node, now: float) -> None:
        assert self.dropped is not None, "policy used before attach()"
        self._estimator.observe_link_down(self._node_id, now)
