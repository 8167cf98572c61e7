"""Micro-benchmarks of the contact-detection hot path.

The movement + detection loop dominates large-fleet runs, so the KD-tree
detector (the only one ``World`` builds) is timed from the paper's fleet
sizes up to large fleets, each call checked against an O(N^2) reference.
The detector keeps a candidate list between calls, so the cold path (a
rebuild: every pair within the radius plus the skin) is timed on a fresh
detector per call, and the steady state (mostly candidate filters) on a
moving trajectory.  These use normal pytest-benchmark statistics (many
rounds).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.world.contacts import KDTreeDetector, decode

RADIUS = 100.0
AREA = 5000.0
TICKS = 50


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


def cold_pairs(pts: np.ndarray, radius: float) -> np.ndarray:
    """One detection by a fresh detector: a rebuild, never a cache hit."""
    return KDTreeDetector().pairs(pts, radius)


def trajectory(n: int, seed: int = 0) -> list[np.ndarray]:
    """*TICKS* 1 s steps of *n* nodes drifting at up to ~2 m/s, the
    paper's RWP speeds."""
    rng = np.random.default_rng(seed)
    start = positions(n, seed)
    velocity = rng.uniform(-1.5, 1.5, size=(n, 2))
    return [start + velocity * t for t in range(TICKS)]


@pytest.mark.benchmark(group="contacts")
@pytest.mark.parametrize("n", [100, 200, 500, 2000])
def test_kdtree_detector(benchmark, n):
    pts = positions(n)
    result = benchmark(cold_pairs, pts, RADIUS)
    assert set(decode(result, n)) == _numpy_rows(pts, RADIUS)


@pytest.mark.benchmark(group="contacts-steady")
@pytest.mark.parametrize("n", [100, 2000])
def test_kdtree_detector_on_a_moving_fleet(benchmark, n):
    """*TICKS* calls of one detector along a trajectory: one rebuild to
    start, then candidate filters until a node drifts half a skin."""
    steps = trajectory(n)

    def run() -> list[np.ndarray]:
        detector = KDTreeDetector()
        return [detector.pairs(pts, RADIUS) for pts in steps]

    results = benchmark(run)
    for pts, keys in zip(steps, results):
        assert set(decode(keys, n)) == _numpy_rows(pts, RADIUS)


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
    result = benchmark(cold_pairs, pts, RADIUS)
    assert set(decode(result, 500)) == expected

    python_s = best_of(lambda: _python_pair_loop(pts, RADIUS))
    kdtree_s = best_of(lambda: cold_pairs(pts, RADIUS))
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
