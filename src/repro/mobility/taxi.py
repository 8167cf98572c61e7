"""Synthetic San-Francisco-taxi-fleet mobility (EPFL/CRAWDAD substitute).

The paper's second scenario replays the EPFL ``cabspotting`` GPS trace (200
taxis, 30 days).  That dataset is not redistributable and is unavailable
offline, so this model synthesizes taxi-like movement with the statistical
features the paper's analysis actually relies on (see DESIGN.md §1):

* **spatial aggregation** — taxis concentrate around a small set of hotspots
  (downtown, airport, stations), so some node pairs meet far more often than
  others ("obvious aggregation phenomenon", Sec. IV-B-2);
* **fewer contacts than random-waypoint** — long cross-town trips with the
  fleet spread over a larger area ("the nodes cannot contact each other as
  frequently", Sec. IV-B-2);
* **approximately exponential intermeeting tails** (Fig. 3b) — emerges from
  the mixture of hotspot returns, verified in
  ``tests/mobility/test_taxi.py`` and the Fig. 3 benchmark.

Mechanically each taxi alternates fares: pick a destination (hotspot-biased
with probability ``hotspot_prob``, else uniform), drive straight at a drawn
street speed, then idle a short pickup pause.  Hotspot weights follow a Zipf
profile so one "downtown" dominates, like the real trace.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.mobility.base import WaypointEngine

#: Defaults chosen to mimic the cabspotting fleet: an ~8 km x 8 km city,
#: urban driving speeds, short passenger-pickup idles.
DEFAULT_AREA = (8000.0, 8000.0)
DEFAULT_SPEED = (4.0, 14.0)
DEFAULT_PAUSE = (10.0, 120.0)


class TaxiFleet(WaypointEngine):
    """Hotspot-biased waypoint mobility imitating a taxi fleet.

    Parameters
    ----------
    n_nodes:
        Fleet size (paper: first 200 taxis).
    area:
        City extent in meters.
    n_hotspots:
        Number of attraction points; drawn once per run from the fleet RNG.
    hotspot_prob:
        Probability that a fare ends at a hotspot rather than a uniform point.
    hotspot_sigma:
        Gaussian scatter (meters) of destinations around their hotspot.
    """

    def __init__(
        self,
        n_nodes: int,
        area: tuple[float, float] = DEFAULT_AREA,
        speed_range: tuple[float, float] = DEFAULT_SPEED,
        pause_range: tuple[float, float] = DEFAULT_PAUSE,
        n_hotspots: int = 6,
        hotspot_prob: float = 0.75,
        hotspot_sigma: float = 250.0,
    ) -> None:
        super().__init__(n_nodes, area, speed_range, pause_range)
        if n_hotspots < 1:
            raise ConfigurationError(f"n_hotspots must be >= 1: {n_hotspots}")
        if not 0.0 <= hotspot_prob <= 1.0:
            raise ConfigurationError(f"hotspot_prob must be in [0,1]: {hotspot_prob}")
        if hotspot_sigma <= 0:
            raise ConfigurationError(f"hotspot_sigma must be positive: {hotspot_sigma}")
        self.n_hotspots = int(n_hotspots)
        self.hotspot_prob = float(hotspot_prob)
        self.hotspot_sigma = float(hotspot_sigma)

    def _setup(self, rng: np.random.Generator) -> None:
        w, h = self.area
        # Hotspots live in the central 60% of the city so their gaussian
        # scatter rarely needs clipping.
        self._hotspots = rng.uniform((0.2 * w, 0.2 * h), (0.8 * w, 0.8 * h),
                                     size=(self.n_hotspots, 2))
        # Zipf-style weights: hotspot 1 is "downtown".
        ranks = np.arange(1, self.n_hotspots + 1, dtype=float)
        self.set_weights((1.0 / ranks) / np.sum(1.0 / ranks))
        super()._setup(rng)
        # Taxis start clustered near hotspots (shift start of day).
        self._pos = self.sample_targets(self.n_nodes, rng)

    def set_weights(self, weights: np.ndarray) -> None:
        """Set the hotspot weights, and the cdf fares are drawn from."""
        self._weights = weights
        # The table ``rng.choice(n_hotspots, p=weights)`` builds per call.
        cdf = weights.cumsum()
        cdf /= cdf[-1]
        self._cdf = cdf

    def sample_targets(self, n: int, rng: np.random.Generator) -> np.ndarray:
        out = super().sample_targets(n, rng)
        to_hotspot = rng.random(n) < self.hotspot_prob
        k = np.count_nonzero(to_hotspot)
        if k:
            # What rng.choice(n_hotspots, size=k, p=weights) draws: the same
            # k uniforms looked up in the same cdf, without choice's checks
            # of the weights on every call.
            which = self._cdf.searchsorted(rng.random(k), side="right")
            pts = rng.normal(0.0, self.hotspot_sigma, size=(k, 2))
            pts += self._hotspots.take(which, axis=0)
            pts.clip(0.0, self._corner, out=pts)
            out[to_hotspot] = pts
        return out

    @property
    def hotspots(self) -> np.ndarray:
        """The hotspot coordinates drawn for this run (read-only view)."""
        return self._hotspots
