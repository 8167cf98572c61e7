"""The SDSRP buffer policy (paper Algorithm 1 + Sec. III-B/C).

On every ranking request the policy maps each message's ``(C_i, R_i)`` to
the priority :math:`U_i` (Eq. 10, or its Eq. 13 Taylor truncation) using:

* λ from an intermeeting estimator (shared fleet-wide by default, per-node
  if fully distributed);
* :math:`m_i` from the copy's spray-time lineage (Eq. 15);
* :math:`d_i` from the gossiped dropped lists (Fig. 5), merged at each
  contact;
* :math:`n_i = m_i + 1 - d_i` (Eq. 14), floored at 1 — the ranking needs a
  live copy to exist (this one).

The router then sends the highest-priority eligible message first and, on
overflow, drops the lowest-priority message among the buffer *and the
newcomer* — exactly Algorithm 1.

With ``params.estimator == "oracle"`` the distributed estimators are
replaced by exact global knowledge (:class:`repro.core.oracle.GlobalInfectionOracle`),
quantifying the estimation error (ablation).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core import params as P
from repro.core.dropped_list import DroppedListStore
from repro.core.intermeeting import (
    IntermeetingEstimator,
    MinIntermeetingEstimator,
    PairIntermeetingEstimator,
)
from repro.core.oracle import GlobalInfectionOracle
from repro.core.params import SdsrpParams
from repro.core.priority import (
    priority_closed_form_scalar,
    priority_taylor_scalar,
)
from repro.core.spray_tree import estimate_infected
from repro.errors import ConfigurationError
from repro.net.message import Message
from repro.net.outcomes import DROP_OVERFLOW
from repro.policies.base import BufferPolicy, PolicyContext
from repro.world.node import Node


@dataclass
class SdsrpShared:
    """State shared by all SDSRP nodes of one scenario.

    The intermeeting estimator is fleet-shared by default because the paper
    fits a single λ per scenario (Fig. 3); passing ``shared=None`` to each
    policy instead gives every node its own estimator (fully distributed
    mode, ablation).  The oracle slot is populated by the scenario builder
    when the oracle estimator is requested.
    """

    estimator: IntermeetingEstimator
    oracle: GlobalInfectionOracle | None = None
    params: SdsrpParams = field(default_factory=SdsrpParams)

    @classmethod
    def for_fleet(
        cls,
        n_nodes: int,
        params: SdsrpParams | None = None,
        oracle: GlobalInfectionOracle | None = None,
    ) -> "SdsrpShared":
        """Build shared state with the estimator the params ask for."""
        params = params or SdsrpParams()
        estimator = _build_estimator(params, n_nodes)
        return cls(estimator=estimator, oracle=oracle, params=params)


def _build_estimator(params: SdsrpParams, n_nodes: int) -> IntermeetingEstimator:
    if params.intermeeting_mode == P.INTERMEETING_MIN:
        return MinIntermeetingEstimator(
            prior_mean=params.prior_intermeeting,
            n_nodes=n_nodes,
            min_samples=params.prior_weight,
        )
    return PairIntermeetingEstimator(
        prior_mean=params.prior_intermeeting,
        min_samples=params.prior_weight,
    )


class SdsrpPolicy(BufferPolicy):
    """Scheduling and Drop Strategy on spray and wait Routing Protocol."""

    name = "sdsrp"
    compare_newcomer = True  # Algorithm 1: the newcomer competes

    def __init__(
        self,
        params: SdsrpParams | None = None,
        shared: SdsrpShared | None = None,
    ) -> None:
        super().__init__()
        if shared is not None and params is not None and shared.params is not params:
            raise ConfigurationError(
                "pass params either directly or inside shared, not both"
            )
        self.params = shared.params if shared is not None else (params or SdsrpParams())
        self.shared = shared
        self._estimator: IntermeetingEstimator | None = (
            shared.estimator if shared is not None else None
        )
        self.dropped: DroppedListStore | None = None
        self._n_nodes = 0

    # -- lifecycle -----------------------------------------------------------

    def attach(self, ctx: PolicyContext) -> None:
        super().attach(ctx)
        self._n_nodes = ctx.n_nodes
        self.dropped = DroppedListStore(ctx.node.id)
        if self._estimator is None:
            self._estimator = _build_estimator(self.params, ctx.n_nodes)
        if self.params.estimator == P.ESTIMATOR_ORACLE and (
            self.shared is None or self.shared.oracle is None
        ):
            raise ConfigurationError(
                "oracle estimator requires a SdsrpShared with an oracle attached"
            )

    # -- estimation plumbing ------------------------------------------------------

    @property
    def estimator(self) -> IntermeetingEstimator:
        if self._estimator is None:
            raise ConfigurationError("policy used before attach()")
        return self._estimator

    def _infection(self, message: Message, now: float) -> tuple[int, int]:
        """(m_i, n_i) for *message* per the configured estimator."""
        assert self.dropped is not None
        if self.params.estimator == P.ESTIMATOR_ORACLE:
            assert self.shared is not None and self.shared.oracle is not None
            oracle = self.shared.oracle
            return oracle.m_seen(message.msg_id), oracle.n_holders(message.msg_id)
        m = estimate_infected(
            message.spray_times,
            now,
            self.estimator.mean_min_intermeeting(self._n_nodes),
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
        lam = self.estimator.rate()
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
        if self.params.gossip_drops and reason == DROP_OVERFLOW:
            assert self.dropped is not None
            self.dropped.record_drop(message.msg_id, now, message.expires_at())

    def on_link_up(self, peer: Node, now: float) -> None:
        assert self.ctx is not None
        # Feeding is endpoint-symmetric: pair estimators dedupe internally,
        # min estimators want both endpoints' node-level samples.
        self.estimator.observe_link_up(self.ctx.node.id, peer.id, now)
        # Gossip: adopt the peer's newer dropped-list records (Fig. 5).
        peer_policy = peer.router.policy if peer.router is not None else None
        if isinstance(peer_policy, SdsrpPolicy) and peer_policy.dropped is not None:
            assert self.dropped is not None
            if self.params.prune_dropped_lists:
                self.dropped.prune(now)
            self.dropped.merge_from(peer_policy.dropped)

    def on_link_down(self, peer: Node, now: float) -> None:
        assert self.ctx is not None
        self.estimator.observe_link_down(self.ctx.node.id, peer.id, now)
