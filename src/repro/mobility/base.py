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
        #: The area's far corner, ``(width, height)``.
        self._corner = np.array(self.area)

    # -- hooks ---------------------------------------------------------------

    def sample_targets(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Draw *n* destination points; default is uniform over the area."""
        # What rng.uniform((0, 0), (w, h), size=(n, 2)) draws, 0 + w * u
        # per coordinate, without its per-call broadcasting set-up.
        return rng.random((n, 2)) * self._corner

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
            # Arriving nodes move too; _arrive puts them on their target.
            reach = speed * dt
            arriving = reach >= dist
            vec *= (reach / np.maximum(dist, 1e-12))[:, None]
            pos += vec
            idx = np.flatnonzero(arriving)
            budgets = [dt] * idx.size
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
            budgets = budget[idx].tolist() if idx.size else []
        if idx.size:
            self._arrive(idx.tolist(), budgets, dist[idx].tolist())

    def _arrive(
        self, nodes: list[int], budgets: list[float], dists: list[float]
    ) -> None:
        """Put *nodes*, which reach their waypoints *dists* away with
        *budgets* of time left, on new legs and pauses, and spend what is
        left of the step on them.

        Arrivals are few per step (one to four taxis of 200, a handful of
        10,000 walkers), so after each round's draws the work is per node,
        on Python floats: the float operations of a whole-array pass, in
        the same order (``np.hypot``, whose rounding ``math.hypot`` does not
        share).  Each round draws targets, speeds and pauses for all of its
        nodes at once, in node order, as one array pass would.  A node may
        pass a few waypoints in one step, up to 64 legs in all.
        """
        pos, target, speed = self._pos, self._target, self._speed
        pause_left, rng = self._pause_left, self._rng
        # (node, budget, distance, waypoint, speed) of each arriving node.
        legs = [
            (i, b, d, target[i].tolist(), speed.item(i))
            for i, b, d in zip(nodes, budgets, dists)
        ]
        for _ in range(63):
            k = len(legs)
            targets = self.sample_targets(k, rng).tolist()
            speeds = self.sample_speeds(k, rng).tolist()
            pauses = self.sample_pauses(k, rng).tolist()
            again = []
            for (i, b, d, (x, y), v), (tx, ty), v2, p in zip(
                legs, targets, speeds, pauses
            ):
                b -= d / v
                if b > 1e-12 and p > 0:
                    consumed = min(p, b)
                    p -= consumed
                    b -= consumed
                if b > 1e-12 and p <= 0:
                    vx, vy = tx - x, ty - y
                    d = float(np.hypot(vx, vy))
                    reach = v2 * b
                    if reach >= d:
                        # At the next waypoint too: the next round draws
                        # its new leg and writes this node back.
                        again.append((i, b, d, [tx, ty], v2))
                        continue
                    step = reach / max(d, 1e-12)
                    x += vx * step
                    y += vy * step
                pos[i] = x, y
                target[i] = tx, ty
                speed[i] = v2
                pause_left[i] = p
            if not again:
                return
            legs = again
        raise SimulationError(  # pragma: no cover - absurdly fast nodes
            "waypoint engine did not converge; speed too high for max_step"
        )
