"""Contact detectors: correctness, agreement across implementations."""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.world.contacts import (
    BruteForceDetector,
    GridDetector,
    KDTreeDetector,
    make_detector,
)

DETECTORS = [BruteForceDetector(), GridDetector(), KDTreeDetector()]


def brute_truth(positions: np.ndarray, radius: float) -> set[tuple[int, int]]:
    out = set()
    n = len(positions)
    for i in range(n):
        for j in range(i + 1, n):
            if np.hypot(*(positions[i] - positions[j])) <= radius:
                out.add((i, j))
    return out


@pytest.mark.parametrize("detector", DETECTORS, ids=lambda d: type(d).__name__)
class TestBasics:
    def test_simple_layout(self, detector):
        pts = np.array([[0.0, 0.0], [50.0, 0.0], [500.0, 0.0], [540.0, 0.0]])
        assert detector.pairs(pts, 100.0) == {(0, 1), (2, 3)}

    def test_boundary_is_inclusive(self, detector):
        pts = np.array([[0.0, 0.0], [100.0, 0.0]])
        assert detector.pairs(pts, 100.0) == {(0, 1)}

    def test_just_out_of_range(self, detector):
        pts = np.array([[0.0, 0.0], [100.001, 0.0]])
        assert detector.pairs(pts, 100.0) == set()

    def test_empty_and_single(self, detector):
        assert detector.pairs(np.zeros((0, 2)), 10.0) == set()
        assert detector.pairs(np.zeros((1, 2)), 10.0) == set()

    def test_coincident_points(self, detector):
        pts = np.zeros((3, 2))
        assert detector.pairs(pts, 1.0) == {(0, 1), (0, 2), (1, 2)}

    def test_rejects_bad_inputs(self, detector):
        with pytest.raises(ConfigurationError):
            detector.pairs(np.zeros((3, 2)), 0.0)
        with pytest.raises(ConfigurationError):
            detector.pairs(np.zeros((3, 3)), 1.0)

    def test_pairs_are_tuples_of_python_ints(self, detector):
        # Snapshots JSON-encode the link set; NumPy integers do not encode.
        positions = np.random.default_rng(4).uniform(0, 300, size=(40, 2))
        pairs = detector.pairs(positions, 60.0)
        assert pairs
        for pair in pairs:
            assert type(pair) is tuple and len(pair) == 2
            assert all(type(i) is int for i in pair)
        json.dumps(sorted(pairs))

    def test_non_contiguous_positions_view(self, detector):
        wide = np.random.default_rng(5).uniform(0, 300, size=(40, 4))
        view = wide[:, ::2]
        assert not view.flags.c_contiguous
        assert detector.pairs(view, 60.0) == brute_truth(view.copy(), 60.0)


class TestAgreement:
    @given(
        st.integers(min_value=2, max_value=60),
        st.integers(min_value=0, max_value=10_000),
        st.floats(min_value=5.0, max_value=400.0),
    )
    def test_all_detectors_match_reference(self, n, seed, radius):
        rng = np.random.default_rng(seed)
        positions = rng.uniform(0, 1000, size=(n, 2))
        expected = brute_truth(positions, radius)
        for det in DETECTORS:
            assert det.pairs(positions, radius) == expected, type(det).__name__


class TestFactory:
    def test_explicit_kinds(self):
        assert isinstance(make_detector(10, "brute"), BruteForceDetector)
        assert isinstance(make_detector(10, "grid"), GridDetector)
        assert isinstance(make_detector(10, "kdtree"), KDTreeDetector)

    def test_default_by_size(self):
        assert isinstance(make_detector(100), BruteForceDetector)
        assert isinstance(make_detector(10_000), KDTreeDetector)

    def test_unknown_kind(self):
        with pytest.raises(ConfigurationError):
            make_detector(10, "sonar")
