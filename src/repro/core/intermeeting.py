"""Intermeeting-time estimation (paper Definitions 1-2 and Eq. 3).

*Intermeeting time* I is the gap between the end of one contact and the
start of the next contact of the same node pair (Def. 1).  Under the
mobility classes of [22] it is approximately exponential with rate
λ = 1/E(I); the *minimum* intermeeting time of a node against all N-1
others is then exponential with λ_min = (N-1)λ (Eq. 3), giving the spray
cadence E(I_min) = E(I)/(N-1) used by Eqs. 6 and 15.

:class:`MinIntermeetingEstimator` samples Def. 2: each node's gap between
consecutive contacts with *anyone*, so every contact yields a sample, as a
deployed SDSRP node could measure it.  It recovers E(I) from the sampled
E(I_min) through Eq. 3.  One instance serves the whole fleet
(:class:`repro.core.sdsrp.SdsrpShared`), because the paper fits a single λ
per scenario (Fig. 3).  A pseudo-count prior holds the estimate near
:data:`PRIOR_INTERMEETING` until samples arrive, avoiding wild early λ
estimates.
"""

from __future__ import annotations

from repro.errors import ConfigurationError

#: Prior on the pairwise E(I), in seconds, and its weight in samples.
PRIOR_INTERMEETING = 20000.0
PRIOR_WEIGHT = 20


class MinIntermeetingEstimator:
    """Def. 2 sampling: per-node gaps between contacts with anyone.

    E(I) is recovered from the sampled E(I_min) via Eq. 3:
    E(I) = (N-1) E(I_min); the pairwise prior is divided by N-1 likewise.
    A node's gap only starts once all its concurrent contacts have ended.
    """

    def __init__(self, n_nodes: int) -> None:
        if n_nodes < 2:
            raise ConfigurationError(f"need at least 2 nodes: {n_nodes}")
        self.n_nodes = int(n_nodes)
        self._prior_min = PRIOR_INTERMEETING / (n_nodes - 1)
        #: Sum and number of the sampled gaps.
        self.gap_sum = 0.0
        self.sample_count = 0
        #: node id -> contacts open now (nodes with none are absent).
        self._active: dict[int, int] = {}
        #: node id -> when its last contact ended.
        self._last_idle: dict[int, float] = {}

    def observe_link_up(self, node_id: int, now: float) -> None:
        """Called by each endpoint's policy when a contact starts."""
        active = self._active.get(node_id, 0)
        if active == 0:
            idle_since = self._last_idle.pop(node_id, None)
            if idle_since is not None and now > idle_since:
                self.gap_sum += now - idle_since
                self.sample_count += 1
        self._active[node_id] = active + 1

    def observe_link_down(self, node_id: int, now: float) -> None:
        """Called by each endpoint's policy when a contact ends."""
        active = self._active.get(node_id, 0)
        if active <= 1:
            self._active.pop(node_id, None)
            self._last_idle[node_id] = now
        else:
            self._active[node_id] = active - 1

    def mean_min_intermeeting(self) -> float:
        """E(I_min): the sampled gaps' mean, blended with the prior."""
        return (self.gap_sum + PRIOR_WEIGHT * self._prior_min) / (
            self.sample_count + PRIOR_WEIGHT
        )

    def mean_intermeeting(self) -> float:
        """E(I) = (N-1) E(I_min) (Eq. 3)."""
        return self.mean_min_intermeeting() * (self.n_nodes - 1)

    def rate(self) -> float:
        """λ = 1/E(I)."""
        return 1.0 / self.mean_intermeeting()
