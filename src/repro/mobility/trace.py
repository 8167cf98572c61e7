"""Movement trace playback.

:class:`TraceMobility` replays recorded positions sampled on a shared time
grid, with linear interpolation between samples — this is how the paper
plugs the EPFL taxi GPS data into ONE.  Irregular per-node GPS samples (the
CRAWDAD cabspotting format) are resampled onto a grid by
:meth:`TraceMobility.from_node_samples`.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError, SimulationError
from repro.mobility.base import MobilityModel


class TraceMobility(MobilityModel):
    """Playback of an ``(T, N, 2)`` position tensor over grid times ``(T,)``.

    Positions before the first sample hold at the first sample; positions
    after the last sample hold at the last sample (a parked taxi, not an
    error), so a trace shorter than the simulation still runs.
    """

    def __init__(self, times: np.ndarray, positions: np.ndarray) -> None:
        times = np.asarray(times, dtype=float)
        positions = np.asarray(positions, dtype=float)
        if times.ndim != 1 or times.size < 2:
            raise ConfigurationError("trace needs at least 2 time samples")
        # Checked first: NaN passes every comparison below as False.
        if not np.all(np.isfinite(times)):
            raise ConfigurationError("trace times must be finite")
        if np.any(np.diff(times) <= 0):
            raise ConfigurationError("trace times must be strictly increasing")
        if positions.ndim != 3 or positions.shape[0] != times.size or positions.shape[2] != 2:
            raise ConfigurationError(
                f"positions must have shape (T, N, 2) with T={times.size}, "
                f"got {positions.shape}"
            )
        if not np.all(np.isfinite(positions)):
            raise ConfigurationError("trace positions must be finite")
        n_nodes = positions.shape[1]
        width = float(positions[..., 0].max()) + 1.0
        height = float(positions[..., 1].max()) + 1.0
        super().__init__(n_nodes, (max(width, 1.0), max(height, 1.0)))
        self._times = times
        self._samples = positions

    # Playback needs no sub-stepping: interpolation is exact at any t.
    max_step = float("inf")

    @classmethod
    def from_node_samples(
        cls,
        node_samples: list[tuple[np.ndarray, np.ndarray]],
        grid_step: float = 30.0,
        duration: float | None = None,
    ) -> "TraceMobility":
        """Resample irregular per-node ``(times, (k,2) positions)`` onto a grid.

        This is the bridge from cabspotting-style GPS logs (one update every
        ~10-60 s per taxi, unaligned) to the vectorized playback format.
        """
        if not node_samples:
            raise ConfigurationError("node_samples must be non-empty")
        if grid_step <= 0:
            raise ConfigurationError(f"grid_step must be positive: {grid_step}")
        samples = []
        for i, (t, p) in enumerate(node_samples):
            t = np.asarray(t, dtype=float)
            p = np.asarray(p, dtype=float)
            if t.ndim != 1 or p.shape != (t.size, 2) or t.size < 1:
                raise ConfigurationError(
                    f"node {i}: need times (k,) and positions (k, 2), k >= 1"
                )
            if not (np.all(np.isfinite(t)) and np.all(np.isfinite(p))):
                # np.interp turns an infinite time into finite garbage.
                raise ConfigurationError(f"node {i}: samples must be finite")
            if np.any(np.diff(t) < 0):
                raise ConfigurationError(f"node {i}: times must be non-decreasing")
            samples.append((t, p))
        if duration is None:
            duration = max(float(t[-1]) for t, _ in samples)
        grid = np.arange(0.0, duration + grid_step, grid_step)
        out = np.empty((grid.size, len(samples), 2))
        for i, (t, p) in enumerate(samples):
            out[:, i, 0] = np.interp(grid, t, p[:, 0])
            out[:, i, 1] = np.interp(grid, t, p[:, 1])
        return cls(grid, out)

    def _setup(self, rng: np.random.Generator) -> None:
        self._pos = self._interp(0.0)

    @property
    def positions(self) -> np.ndarray:
        return self._pos

    def _step(self, dt: float) -> None:
        self._pos = self._interp(self._time + dt)

    def _interp(self, t: float) -> np.ndarray:
        times = self._times
        if t <= times[0]:
            return self._samples[0].copy()
        if t >= times[-1]:
            return self._samples[-1].copy()
        hi = int(np.searchsorted(times, t, side="right"))
        lo = hi - 1
        span = times[hi] - times[lo]
        w = (t - times[lo]) / span
        return (1.0 - w) * self._samples[lo] + w * self._samples[hi]

    def advance(self, to_time: float) -> np.ndarray:
        # Direct interpolation — overriding avoids pointless sub-stepping.
        if not self._initialized:
            raise SimulationError("mobility model used before initialize()")
        if to_time < self._time:
            raise SimulationError(f"mobility cannot rewind: {to_time} < {self._time}")
        self._time = to_time
        self._pos = self._interp(to_time)
        return self._pos
