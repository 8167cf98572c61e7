"""Mobility model interface and the shared vectorized waypoint engine."""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro.errors import ConfigurationError, SimulationError


class MobilityModel(ABC):
    """Fleet-level mobility: owns and advances all node positions.

    Contract: :meth:`initialize` is called once with the fleet RNG before the
    run; :meth:`advance` is then called with non-decreasing times and returns
    the full ``(N, 2)`` position array (a live view — callers must not
    mutate it).
    """

    def __init__(self, n_nodes: int, area: tuple[float, float]) -> None:
        if n_nodes < 1:
            raise ConfigurationError(f"n_nodes must be >= 1: {n_nodes}")
        width, height = area
        if width <= 0 or height <= 0:
            raise ConfigurationError(f"area must be positive: {area}")
        self.n_nodes = int(n_nodes)
        self.area = (float(width), float(height))
        self._time = 0.0
        self._initialized = False

    @abstractmethod
    def _setup(self, rng: np.random.Generator) -> None:
        """Draw initial state (positions, targets, ...)."""

    @abstractmethod
    def _step(self, dt: float) -> None:
        """Advance internal state by *dt* seconds."""

    @property
    @abstractmethod
    def positions(self) -> np.ndarray:
        """Current ``(N, 2)`` positions in meters."""

    def initialize(self, rng: np.random.Generator) -> None:
        """Reset to time 0 and draw the initial fleet state."""
        self._rng = rng
        self._time = 0.0
        self._setup(rng)
        self._initialized = True

    #: Largest dt handed to :meth:`_step` in one call; larger advances are
    #: subdivided so waypoint turnarounds are not skipped over.
    max_step: float = 1.0

    @property
    def max_speed(self) -> float | None:
        """A bound on every node's speed, in m/s, for a model whose nodes
        move along straight legs at speeds drawn from a bounded range: an
        advance by ``dt`` then moves no node more than ``max_speed * dt``.
        ``None`` for a model that can jump or has not been shown not to;
        the contact detector then tests positions on every tick."""
        return None

    def advance(self, to_time: float) -> np.ndarray:
        """Advance the fleet to *to_time* and return positions."""
        if not self._initialized:
            raise SimulationError("mobility model used before initialize()")
        if to_time < self._time:
            raise SimulationError(
                f"mobility cannot rewind: {to_time} < {self._time}"
            )
        remaining = to_time - self._time
        while remaining > 1e-12:
            dt = min(remaining, self.max_step)
            self._step(dt)
            remaining -= dt
        self._time = to_time
        return self.positions

    def _uniform_positions(self, rng: np.random.Generator) -> np.ndarray:
        """Uniform initial placement over the area."""
        w, h = self.area
        return rng.uniform((0.0, 0.0), (w, h), size=(self.n_nodes, 2))


class WaypointEngine(MobilityModel):
    """Vectorized move-pause-retarget engine.

    Subclasses customize destination selection (:meth:`sample_targets`) —
    uniform for random-waypoint, hotspot-biased for the taxi model — and
    optionally speed/pause draws.  Movement follows straight lines at a
    per-leg speed; on arrival the node pauses (possibly zero) and then draws
    a new target.
    """

    def __init__(
        self,
        n_nodes: int,
        area: tuple[float, float],
        speed_range: tuple[float, float],
        pause_range: tuple[float, float] = (0.0, 0.0),
    ) -> None:
        super().__init__(n_nodes, area)
        lo, hi = speed_range
        if not 0 < lo <= hi:
            raise ConfigurationError(f"bad speed_range: {speed_range}")
        plo, phi = pause_range
        if not 0 <= plo <= phi:
            raise ConfigurationError(f"bad pause_range: {pause_range}")
        self.speed_range = (float(lo), float(hi))
        self.pause_range = (float(plo), float(phi))

    # -- hooks ---------------------------------------------------------------

    def sample_targets(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Draw *n* destination points; default is uniform over the area."""
        w, h = self.area
        return rng.uniform((0.0, 0.0), (w, h), size=(n, 2))

    def sample_speeds(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Draw *n* leg speeds from :attr:`speed_range` (an override must
        stay inside it: :attr:`max_speed` is its upper end)."""
        lo, hi = self.speed_range
        if lo == hi:
            return np.full(n, lo)
        return rng.uniform(lo, hi, size=n)

    def sample_pauses(self, n: int, rng: np.random.Generator) -> np.ndarray:
        lo, hi = self.pause_range
        if hi == 0.0:
            return np.zeros(n)
        return rng.uniform(lo, hi, size=n)

    # -- engine ----------------------------------------------------------------

    def _setup(self, rng: np.random.Generator) -> None:
        n = self.n_nodes
        self._pos = self._uniform_positions(rng)
        self._target = self.sample_targets(n, rng)
        self._speed = self.sample_speeds(n, rng)
        self._pause_left = np.zeros(n)

    @property
    def positions(self) -> np.ndarray:
        return self._pos

    @property
    def max_speed(self) -> float:
        """Every leg's speed is drawn from :attr:`speed_range`, and a node
        travels its legs in straight lines or pauses."""
        return self.speed_range[1]

    def _step(self, dt: float) -> None:
        pos, target, speed = self._pos, self._target, self._speed
        pause_left = self._pause_left
        vec = target - pos
        dist = np.hypot(vec[:, 0], vec[:, 1])
        if dt > 1e-12 and not pause_left.any():
            # The lean pass: no node pauses, so every node's budget is dt
            # and every node moves.  The same float operations, in the same
            # order, as the general pass below with its masks folded away.
            # Arriving nodes move too; the loop puts them on their target.
            reach = speed * dt
            arriving = reach >= dist
            vec *= (reach / np.maximum(dist, 1e-12))[:, None]
            pos += vec
            idx = np.flatnonzero(arriving)
            budget = dt
        else:
            # One whole-array pass.  Pauses absorb travel time first (a node
            # not pausing has pause_left == 0.0); every node with time left
            # then moves toward its waypoint, unless it gets there.
            consumed = np.minimum(pause_left, dt)
            pause_left -= consumed
            budget = dt - consumed
            reach = speed * budget
            active = budget > 1e-12
            arriving = active & (reach >= dist)
            step = reach / np.maximum(dist, 1e-12)
            np.add(
                pos, vec * step[:, None], out=pos,
                where=(active & ~arriving)[:, None],
            )
            idx = np.flatnonzero(arriving)
            budget = budget[idx]
        if idx.size == 0:
            return

        # Per-node work only for nodes that reached their waypoint: each
        # draws a new leg and pause, then spends what is left of dt on them.
        # A node may pass a few waypoints in one step, up to 64 legs in all.
        dist = dist[idx]
        for _ in range(63):
            if idx.size == 0:
                return
            pos[idx] = target[idx]
            budget -= dist / speed[idx]
            k = idx.size
            target[idx] = self.sample_targets(k, self._rng)
            speed[idx] = self.sample_speeds(k, self._rng)
            pause_left[idx] = self.sample_pauses(k, self._rng)
            pausing = (budget > 1e-12) & (pause_left[idx] > 0)
            if pausing.any():
                held = idx[pausing]
                consumed = np.minimum(pause_left[held], budget[pausing])
                pause_left[held] -= consumed
                budget[pausing] -= consumed
            going = (budget > 1e-12) & (pause_left[idx] <= 0)
            idx, budget = idx[going], budget[going]
            if idx.size == 0:
                return
            vec = target[idx] - pos[idx]
            dist = np.hypot(vec[:, 0], vec[:, 1])
            reach = speed[idx] * budget
            arriving = reach >= dist
            moving = ~arriving
            step = reach[moving] / np.maximum(dist[moving], 1e-12)
            pos[idx[moving]] += vec[moving] * step[:, None]
            idx, budget, dist = idx[arriving], budget[arriving], dist[arriving]
        raise SimulationError(  # pragma: no cover - absurdly fast nodes
            "waypoint engine did not converge; speed too high for max_step"
        )
