"""Intermeeting-time estimation (paper Definitions 1-2 and Eq. 3).

*Intermeeting time* I is the gap between the end of one contact and the
start of the next contact of the same node pair (Def. 1).  Under the
mobility classes of [22] it is approximately exponential with rate
λ = 1/E(I); the *minimum* intermeeting time of a node against all N-1
others is then exponential with λ_min = (N-1)λ (Eq. 3), giving the spray
cadence E(I_min) = E(I)/(N-1) used by Eqs. 6 and 15.

Estimators (all implement :class:`IntermeetingEstimator` and the uniform
:meth:`observe_link_up` / :meth:`observe_link_down` feeding interface):

* :class:`PairIntermeetingEstimator` — samples Def. 1 directly (per-pair
  gaps).  Statistically clean but *censored* in short runs: a pair rarely
  meets twice within the paper's 18000 s horizon, so samples are few and
  biased low.
* :class:`MinIntermeetingEstimator` — samples Def. 2 (per-node gap between
  consecutive contacts with *anyone*) and scales by (N-1) via Eq. 3.  Every
  contact yields a sample, so this is what deployed SDSRP nodes would use;
  it is the experiment default.
* :class:`StaticIntermeetingEstimator` — a fixed E(I) for oracle ablations
  and unit tests.

Online estimators blend a prior mean with the data (pseudo-count prior)
until enough samples arrive, avoiding wild early λ estimates.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

from repro.errors import ConfigurationError

PairKey = tuple[int, int]


def pair_key(a: int, b: int) -> PairKey:
    """Canonical unordered pair key."""
    return (a, b) if a <= b else (b, a)


class IntermeetingEstimator(ABC):
    """E(I) provider (Table I: E(I), λ, E(I_min), λ_min)."""

    @abstractmethod
    def mean_intermeeting(self) -> float:
        """Current estimate of E(I) in seconds (always positive)."""

    def rate(self) -> float:
        """λ = 1/E(I)."""
        return 1.0 / self.mean_intermeeting()

    def mean_min_intermeeting(self, n_nodes: int) -> float:
        """E(I_min) = E(I)/(N-1) (Eq. 3)."""
        if n_nodes < 2:
            raise ConfigurationError(f"need at least 2 nodes: {n_nodes}")
        return self.mean_intermeeting() / (n_nodes - 1)

    def min_rate(self, n_nodes: int) -> float:
        """λ_min = (N-1)λ (Eq. 3)."""
        return 1.0 / self.mean_min_intermeeting(n_nodes)

    # -- feeding (no-op by default; online estimators override) -------------

    def observe_link_up(self, self_id: int, peer_id: int, now: float) -> None:
        """Called by each endpoint's policy when a contact starts."""

    def observe_link_down(self, self_id: int, peer_id: int, now: float) -> None:
        """Called by each endpoint's policy when a contact ends."""


class StaticIntermeetingEstimator(IntermeetingEstimator):
    """Fixed E(I) — oracle / test double."""

    def __init__(self, mean: float) -> None:
        if mean <= 0:
            raise ConfigurationError(f"mean intermeeting must be positive: {mean}")
        self._mean = float(mean)

    def mean_intermeeting(self) -> float:
        return self._mean


class _RunningMean:
    """Sum/count accumulator with a pseudo-count prior."""

    def __init__(self, prior_mean: float, prior_weight: int) -> None:
        if prior_mean <= 0:
            raise ConfigurationError(f"prior_mean must be positive: {prior_mean}")
        if prior_weight < 1:
            raise ConfigurationError(f"prior_weight must be >= 1: {prior_weight}")
        self.prior_mean = float(prior_mean)
        self.prior_weight = int(prior_weight)
        self.total = 0.0
        self.count = 0

    def add(self, value: float) -> None:
        self.total += value
        self.count += 1

    def mean(self) -> float:
        return (self.total + self.prior_weight * self.prior_mean) / (
            self.count + self.prior_weight
        )


class PairIntermeetingEstimator(IntermeetingEstimator):
    """Def. 1 sampling: gaps between consecutive contacts of the same pair.

    Feeding is idempotent per contact event, so it is safe for both
    endpoints of a link (and hence a fleet-shared instance) to report: the
    first ``observe_link_up`` consumes the pair's armed end-time, the
    duplicate finds nothing.
    """

    def __init__(self, prior_mean: float, min_samples: int = 20) -> None:
        self._acc = _RunningMean(prior_mean, min_samples)
        self._last_end: dict[PairKey, float] = {}

    def observe_link_up(self, self_id: int, peer_id: int, now: float) -> None:
        last_end = self._last_end.pop(pair_key(self_id, peer_id), None)
        if last_end is not None and now > last_end:
            self._acc.add(now - last_end)

    def observe_link_down(self, self_id: int, peer_id: int, now: float) -> None:
        self._last_end[pair_key(self_id, peer_id)] = now

    @property
    def sample_count(self) -> int:
        return self._acc.count

    def mean_intermeeting(self) -> float:
        return self._acc.mean()


class MinIntermeetingEstimator(IntermeetingEstimator):
    """Def. 2 sampling: per-node gaps between contacts with anyone.

    E(I) is recovered from the sampled E(I_min) via Eq. 3:
    E(I) = (N-1) E(I_min).  ``prior_mean`` is the prior on the *pairwise*
    E(I) for interface consistency; it is internally divided by N-1.
    A node's gap only starts once all its concurrent contacts have ended.
    """

    def __init__(self, prior_mean: float, n_nodes: int, min_samples: int = 20) -> None:
        if n_nodes < 2:
            raise ConfigurationError(f"need at least 2 nodes: {n_nodes}")
        self.n_nodes = int(n_nodes)
        self._acc = _RunningMean(prior_mean / (n_nodes - 1), min_samples)
        self._active: dict[int, int] = {}
        self._last_idle: dict[int, float] = {}

    def observe_link_up(self, self_id: int, peer_id: int, now: float) -> None:
        active = self._active.get(self_id, 0)
        if active == 0:
            idle_since = self._last_idle.pop(self_id, None)
            if idle_since is not None and now > idle_since:
                self._acc.add(now - idle_since)
        self._active[self_id] = active + 1

    def observe_link_down(self, self_id: int, peer_id: int, now: float) -> None:
        active = self._active.get(self_id, 0)
        if active <= 1:
            self._active.pop(self_id, None)
            self._last_idle[self_id] = now
        else:
            self._active[self_id] = active - 1

    @property
    def sample_count(self) -> int:
        return self._acc.count

    def mean_min_intermeeting(self, n_nodes: int | None = None) -> float:
        """Directly sampled E(I_min) (the n_nodes argument is ignored)."""
        return self._acc.mean()

    def mean_intermeeting(self) -> float:
        return self._acc.mean() * (self.n_nodes - 1)
