"""Contact (link) detection.

Given an ``(N, 2)`` position array and a detection radius, the detector
returns the set of node index pairs ``(i, j), i < j`` within the radius.
One implementation serves every fleet size: scipy's ``cKDTree`` range
query.  It beats an O(N^2) NumPy broadcast from the paper's 100-node
fleets upward (46 vs 62 µs per call at 100 nodes, 77 vs 250 µs at 200, on
a 2-core x86-64 VM with SciPy 1.17; ``benchmarks/test_bench_contacts.py``
times it), and a uniform grid binned in Python was slower than both at
these sizes.  Distances are compared as ``dx*dx + dy*dy <= r*r``, so exact
radius-boundary ties are contacts; ``tests/world/test_contacts.py`` pins
this against an O(N^2) reference.

Pair sets are built from ``tolist()`` columns, so no per-element NumPy
scalar is ever boxed: pairs are tuples of Python ints (snapshots
JSON-encode the link set).
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np
from scipy.spatial import cKDTree

from repro.errors import ConfigurationError

PairSet = set[tuple[int, int]]


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


class KDTreeDetector(ContactDetector):
    """scipy ``cKDTree.query_pairs`` — the detector for every fleet size."""

    def pairs(self, positions: np.ndarray, radius: float) -> PairSet:
        self._check(positions, radius)
        if positions.shape[0] < 2:
            return set()
        found = cKDTree(positions).query_pairs(radius, output_type="ndarray")
        return set(zip(found[:, 0].tolist(), found[:, 1].tolist()))
