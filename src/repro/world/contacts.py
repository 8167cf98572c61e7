"""Contact (link) detection strategies.

Given an ``(N, 2)`` position array and a detection radius, a detector returns
the set of node index pairs ``(i, j), i < j`` within the radius.  Three
interchangeable implementations are provided; ``make_detector`` picks a
sensible default by fleet size.  The brute-force detector is fully
NumPy-vectorized and is the fastest for the paper's fleet sizes (N <= ~500);
the grid and KD-tree detectors scale to large fleets (micro-benchmarked in
``benchmarks/test_bench_contacts.py``).

Rows are gathered with ``take`` and pair sets are built from ``tolist()``
columns, so no per-element NumPy scalar is ever boxed: pairs are tuples of
Python ints (snapshots JSON-encode the link set).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from functools import lru_cache

import numpy as np
from scipy.spatial import cKDTree

from repro.errors import ConfigurationError

PairSet = set[tuple[int, int]]


# Local twin of repro.vector.kernels.triu_pairs: importing it here would
# cycle (repro.vector -> vector.world -> world.contacts), so the cache is
# duplicated rather than shared.
@lru_cache(maxsize=8)
def _triu_pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    iu, ju = np.triu_indices(n, k=1)
    return iu.astype(np.int64), ju.astype(np.int64)


class ContactDetector(ABC):
    """Strategy interface for range queries over node positions."""

    @abstractmethod
    def pairs(self, positions: np.ndarray, radius: float) -> PairSet:
        """Return all pairs ``(i, j), i < j`` with distance <= *radius*."""

    @staticmethod
    def _check(positions: np.ndarray, radius: float) -> None:
        if radius <= 0:
            raise ConfigurationError(f"radius must be positive: {radius}")
        if positions.ndim != 2 or positions.shape[1] != 2:
            raise ConfigurationError(
                f"positions must have shape (N, 2), got {positions.shape}"
            )


class BruteForceDetector(ContactDetector):
    """O(N^2) vectorized pairwise distances — fastest for small fleets.

    Works on the upper triangle only: each of the N(N-1)/2 pairs is
    computed once, with the same ``positions[i] - positions[j]`` (i < j)
    float sequence as before the dedupe, so detections — including exact
    radius-boundary ties — are unchanged while the full N x N broadcast
    (twice the work plus an N^2 masking pass) is gone.
    """

    def pairs(self, positions: np.ndarray, radius: float) -> PairSet:
        self._check(positions, radius)
        n = positions.shape[0]
        if n < 2:
            return set()
        iu, ju = _triu_pairs(n)
        diff = positions.take(iu, axis=0) - positions.take(ju, axis=0)
        d2 = np.einsum("ij,ij->i", diff, diff)
        close = d2 <= radius * radius
        return set(zip(iu[close].tolist(), ju[close].tolist()))


class GridDetector(ContactDetector):
    """Uniform spatial hashing with cell size = radius.

    Each node is binned into a cell; only the 3x3 cell neighborhood is
    checked, making detection ~O(N) for fleets spread over an area much
    larger than the radius (the paper's scenarios qualify).
    """

    #: Forward half of the 8-neighborhood; scanning only these (plus the
    #: cell itself) visits every adjacent cell pair exactly once.
    _FORWARD = ((1, 0), (1, 1), (0, 1), (-1, 1))

    def pairs(self, positions: np.ndarray, radius: float) -> PairSet:
        self._check(positions, radius)
        n = positions.shape[0]
        if n < 2:
            return set()
        cells = np.floor(positions / radius).astype(np.int64)
        buckets: dict[tuple[int, int], list[int]] = {}
        for idx, cell in enumerate(zip(cells[:, 0].tolist(), cells[:, 1].tolist())):
            buckets.setdefault(cell, []).append(idx)

        cand_a: list[int] = []
        cand_b: list[int] = []
        for (cx, cy), members in buckets.items():
            for a_pos, a in enumerate(members):
                for b in members[a_pos + 1 :]:
                    cand_a.append(a)
                    cand_b.append(b)
            for dx, dy in self._FORWARD:
                other = buckets.get((cx + dx, cy + dy))
                if not other:
                    continue
                for a in members:
                    for b in other:
                        cand_a.append(a)
                        cand_b.append(b)
        if not cand_a:
            return set()
        ia = np.asarray(cand_a, dtype=np.int64)
        ib = np.asarray(cand_b, dtype=np.int64)
        diff = positions.take(ia, axis=0) - positions.take(ib, axis=0)
        close = np.einsum("ij,ij->i", diff, diff) <= radius * radius
        ia, ib = ia[close], ib[close]
        return set(zip(np.minimum(ia, ib).tolist(), np.maximum(ia, ib).tolist()))


class KDTreeDetector(ContactDetector):
    """scipy ``cKDTree.query_pairs`` — best asymptotics for huge fleets."""

    def pairs(self, positions: np.ndarray, radius: float) -> PairSet:
        self._check(positions, radius)
        if positions.shape[0] < 2:
            return set()
        found = cKDTree(positions).query_pairs(radius, output_type="ndarray")
        return set(zip(found[:, 0].tolist(), found[:, 1].tolist()))


def make_detector(n_nodes: int, kind: str | None = None) -> ContactDetector:
    """Pick a detector: explicit *kind* or a size-based default.

    ``kind`` may be ``"brute"``, ``"grid"`` or ``"kdtree"``.
    """
    if kind is None:
        kind = "brute" if n_nodes <= 512 else "kdtree"
    table = {
        "brute": BruteForceDetector,
        "grid": GridDetector,
        "kdtree": KDTreeDetector,
    }
    try:
        return table[kind]()
    except KeyError:
        raise ConfigurationError(
            f"unknown detector kind {kind!r}; expected one of {sorted(table)}"
        ) from None
