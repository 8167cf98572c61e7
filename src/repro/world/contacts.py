"""Contact (link) detection and the link-key arrays the world diffs.

Given an ``(N, 2)`` position array and a detection radius, the detector
returns every node pair ``(i, j), i < j`` within the radius as one sorted
int64 array of *link keys* ``i * N + j``.  A key sorts exactly like its
pair, so key order is ``sorted(pairs)`` order, and keys stay below
``N * N``, far inside int64 for any fleet this simulator runs.

One implementation serves every fleet size: scipy's ``cKDTree`` range
query.  It beats an O(N^2) NumPy broadcast from the paper's 100-node
fleets upward (46 vs 62 µs per call at 100 nodes, 77 vs 250 µs at 200, on
a 2-core x86-64 VM with SciPy 1.17; ``benchmarks/test_bench_contacts.py``
times it), and a uniform grid binned in Python was slower than both at
these sizes.  Distances are compared as ``dx*dx + dy*dy <= r*r``, so exact
radius-boundary ties are contacts; ``tests/world/test_contacts.py`` pins
this against an O(N^2) reference.

The world keeps its link set as such an array.  After the first tick only
a few links change per tick (~280 of ~10.9k at 10k nodes), so
:func:`diff_keys` finds them with sorted-array searches and :func:`decode`
builds ``(i, j)`` tuples of Python ints for those alone (snapshots
JSON-encode links; NumPy integers do not encode).
"""

from __future__ import annotations

import numpy as np
from scipy.spatial import cKDTree

from repro.errors import ConfigurationError


class KDTreeDetector:
    """scipy ``cKDTree.query_pairs`` — the detector for every fleet size."""

    def pairs(self, positions: np.ndarray, radius: float) -> np.ndarray:
        """Sorted int64 keys ``i * N + j`` of all pairs ``(i, j), i < j``
        with distance <= *radius*."""
        self._check(positions, radius)
        n = positions.shape[0]
        if n < 2:
            return np.empty(0, dtype=np.int64)
        found = cKDTree(positions).query_pairs(radius, output_type="ndarray")
        keys = found[:, 0].astype(np.int64) * n + found[:, 1]
        keys.sort()
        return keys

    @staticmethod
    def _check(positions: np.ndarray, radius: float) -> None:
        if radius <= 0:
            raise ConfigurationError(f"radius must be positive: {radius}")
        if positions.ndim != 2 or positions.shape[1] != 2:
            raise ConfigurationError(
                f"positions must have shape (N, 2), got {positions.shape}"
            )


def decode(keys: np.ndarray, n: int) -> list[tuple[int, int]]:
    """The pairs ``(i, j)`` of *keys* over *n* nodes, as Python ints, in
    key order."""
    return [divmod(key, n) for key in keys.tolist()]


def diff_keys(old: np.ndarray, new: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(gone, came)``: the keys of *old* missing from *new*, and those of
    *new* missing from *old*.  Inputs and outputs are sorted and unique."""
    if old.size == 0 or new.size == 0:
        return old, new
    # Each key's insertion point in the other array holds an equal key iff
    # the key is there; "clip" maps past-the-end points onto the last key.
    gone = old[new.take(np.searchsorted(new, old), mode="clip") != old]
    came = new[old.take(np.searchsorted(old, new), mode="clip") != new]
    return gone, came
