"""Micro-benchmarks of the contact-detection hot path.

Per the hpc guides: the movement + detection loop dominates large-fleet
runs, so the KD-tree detector (the only one ``World`` builds) is timed from
the paper's fleet sizes up to large fleets, each call checked against an
O(N^2) reference.  These use normal pytest-benchmark statistics (many
rounds) since they are pure functions.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.world.contacts import KDTreeDetector

RADIUS = 100.0
AREA = 5000.0

DETECTOR = KDTreeDetector()


def positions(n: int, seed: int = 0) -> np.ndarray:
    return np.random.default_rng(seed).uniform(0, AREA, size=(n, 2))


def _numpy_rows(pts: np.ndarray, radius: float) -> set[tuple[int, int]]:
    """O(N^2) reference, one NumPy row at a time (bounded memory)."""
    found = set()
    for i in range(pts.shape[0] - 1):
        diff = pts[i + 1 :] - pts[i]
        close = np.nonzero(diff[:, 0] * diff[:, 0] + diff[:, 1] * diff[:, 1]
                           <= radius * radius)[0]
        found.update((i, i + 1 + j) for j in close.tolist())
    return found


@pytest.mark.benchmark(group="contacts")
@pytest.mark.parametrize("n", [100, 200, 500, 2000])
def test_kdtree_detector(benchmark, n):
    pts = positions(n)
    result = benchmark(DETECTOR.pairs, pts, RADIUS)
    assert result == _numpy_rows(pts, RADIUS)


def _python_pair_loop(pts: np.ndarray, radius: float) -> set[tuple[int, int]]:
    """The per-pair Python loop the detector replaces."""
    n = pts.shape[0]
    found = set()
    for i in range(n):
        for j in range(i + 1, n):
            diff = pts[i] - pts[j]
            if float(diff @ diff) <= radius * radius:
                found.add((i, j))
    return found


@pytest.mark.benchmark(group="contacts-speedup")
def test_kdtree_speedup_over_python_loop(benchmark, record_figure):
    """KD-tree detection vs the per-pair Python loop, n=500; records the
    speedup into bench_results.json."""
    from benchmarks.conftest import best_of

    pts = positions(500)
    expected = _python_pair_loop(pts, RADIUS)
    result = benchmark(DETECTOR.pairs, pts, RADIUS)
    assert result == expected

    python_s = best_of(lambda: _python_pair_loop(pts, RADIUS))
    kdtree_s = best_of(lambda: DETECTOR.pairs(pts, RADIUS))
    speedup = python_s / kdtree_s
    record_figure("contacts_vectorization", {
        "n": 500,
        "detector": "kdtree",
        "python_loop_s": python_s,
        "kdtree_s": kdtree_s,
        "speedup": speedup,
    })
    print(f"\nKD-tree contacts: {speedup:.1f}x over the Python loop")
    assert speedup >= 5.0
