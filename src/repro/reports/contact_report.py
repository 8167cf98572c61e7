"""Contact statistics: counts, durations and intermeeting samples.

The intermeeting samples are the raw material of the paper's Fig. 3
(distribution of intermeeting times ≈ exponential); feed them to
:func:`repro.analysis.fitting.fit_exponential`.
"""

from __future__ import annotations

import numpy as np

from repro.engine.simulator import UNSUBSCRIBED, Simulator, Unsubscribed
from repro.world.node import Node

PairKey = tuple[int, int]


class ContactReport:
    """Records link up/down events per node pair."""

    def __init__(self) -> None:
        self.contact_count = 0
        self._durations: list[float] = []
        self._intermeetings: list[float] = []
        self._up_since: dict[PairKey, float] = {}
        self._last_down: dict[PairKey, float] = {}
        #: The simulator :meth:`subscribe` binds; handlers read its ``now``.
        self._sim: Simulator | Unsubscribed = UNSUBSCRIBED

    def subscribe(self, sim: Simulator) -> None:
        """Attach to a simulator's listener registry."""
        self._sim = sim
        sim.listeners.subscribe("link.up", self._on_up)
        sim.listeners.subscribe("link.down", self._on_down)

    @staticmethod
    def _key(a: Node, b: Node) -> PairKey:
        return (a.id, b.id) if a.id <= b.id else (b.id, a.id)

    def _on_up(self, a: Node, b: Node) -> None:
        key = self._key(a, b)
        now = self._sim.now
        self.contact_count += 1
        self._up_since[key] = now
        last_down = self._last_down.pop(key, None)
        if last_down is not None and now > last_down:
            self._intermeetings.append(now - last_down)

    def _on_down(self, a: Node, b: Node) -> None:
        key = self._key(a, b)
        now = self._sim.now
        up_since = self._up_since.pop(key, None)
        if up_since is not None:
            self._durations.append(now - up_since)
        self._last_down[key] = now

    # -- results -----------------------------------------------------------

    def intermeeting_samples(self) -> np.ndarray:
        """All observed pair intermeeting times (seconds)."""
        return np.asarray(self._intermeetings, dtype=float)

    def contact_durations(self) -> np.ndarray:
        """All completed contact durations (seconds)."""
        return np.asarray(self._durations, dtype=float)

    def mean_intermeeting(self) -> float:
        """Mean observed intermeeting time (nan with no samples)."""
        samples = self.intermeeting_samples()
        return float(samples.mean()) if samples.size else float("nan")
