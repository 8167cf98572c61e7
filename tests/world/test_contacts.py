"""The KD-tree contact detector: correctness of its sorted link keys,
agreement with O(N^2) references, exact radius ties at scale."""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.world.contacts import KDTreeDetector, decode

DETECTORS = [KDTreeDetector()]


def brute_truth(positions: np.ndarray, radius: float) -> set[tuple[int, int]]:
    """O(N^2) reference in the detector's own arithmetic: a pair is a
    contact iff ``dx*dx + dy*dy <= r*r``, so exact ties count."""
    dx = positions[:, None, 0] - positions[None, :, 0]
    dy = positions[:, None, 1] - positions[None, :, 1]
    close = np.triu(dx * dx + dy * dy <= radius * radius, k=1)
    i, j = np.nonzero(close)
    return set(zip(i.tolist(), j.tolist()))


def found(detector, positions: np.ndarray, radius: float) -> set[tuple[int, int]]:
    """The detector's pairs, decoded from its keys, which must be sorted
    int64 with one key per pair."""
    keys = detector.pairs(positions, radius)
    assert keys.dtype == np.int64
    assert np.all(keys[1:] > keys[:-1])
    pairs = decode(keys, positions.shape[0])
    assert len(pairs) == len(keys)
    return set(pairs)


@pytest.mark.parametrize("detector", DETECTORS, ids=lambda d: type(d).__name__)
class TestBasics:
    def test_simple_layout(self, detector):
        pts = np.array([[0.0, 0.0], [50.0, 0.0], [500.0, 0.0], [540.0, 0.0]])
        assert found(detector, pts, 100.0) == {(0, 1), (2, 3)}

    def test_boundary_is_inclusive(self, detector):
        pts = np.array([[0.0, 0.0], [100.0, 0.0]])
        assert found(detector, pts, 100.0) == {(0, 1)}

    def test_just_out_of_range(self, detector):
        pts = np.array([[0.0, 0.0], [100.001, 0.0]])
        assert found(detector, pts, 100.0) == set()

    def test_empty_and_single(self, detector):
        assert found(detector, np.zeros((0, 2)), 10.0) == set()
        assert found(detector, np.zeros((1, 2)), 10.0) == set()

    def test_coincident_points(self, detector):
        pts = np.zeros((3, 2))
        assert found(detector, pts, 1.0) == {(0, 1), (0, 2), (1, 2)}

    def test_rejects_bad_inputs(self, detector):
        with pytest.raises(ConfigurationError):
            detector.pairs(np.zeros((3, 2)), 0.0)
        with pytest.raises(ConfigurationError):
            detector.pairs(np.zeros((3, 3)), 1.0)

    def test_pairs_are_tuples_of_python_ints(self, detector):
        # Snapshots JSON-encode the link set; NumPy integers do not encode.
        positions = np.random.default_rng(4).uniform(0, 300, size=(40, 2))
        pairs = decode(detector.pairs(positions, 60.0), 40)
        assert pairs
        for pair in pairs:
            assert type(pair) is tuple and len(pair) == 2
            assert all(type(i) is int for i in pair)
        assert pairs == sorted(pairs)
        json.dumps(pairs)

    def test_non_contiguous_positions_view(self, detector):
        wide = np.random.default_rng(5).uniform(0, 300, size=(40, 4))
        view = wide[:, ::2]
        assert not view.flags.c_contiguous
        assert found(detector, view, 60.0) == brute_truth(view.copy(), 60.0)


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
            assert found(det, positions, radius) == expected, type(det).__name__


def exact_ties(positions: np.ndarray, pairs: set[tuple[int, int]],
               radius: float) -> int:
    """How many of *pairs* sit exactly on the radius."""
    return sum(
        1 for i, j in pairs
        if float(np.sum((positions[i] - positions[j]) ** 2)) == radius * radius
    )


class TestExactTiesAtScale:
    """Hundreds of nodes (many KD-tree leaves) with pairs exactly on the
    boundary: the tree's pruning must never drop a tie."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("radius", [100.0, 37.3])
    def test_shuffled_lattice_spaced_at_the_radius(self, seed, radius):
        side = 25
        xs, ys = np.meshgrid(np.arange(side), np.arange(side))
        lattice = np.column_stack([xs.ravel(), ys.ravel()]) * radius
        order = np.random.default_rng(seed).permutation(side * side)
        positions = lattice[order]
        expected = brute_truth(positions, radius)
        if radius == 100.0:
            # Every lattice edge is an exact tie and nothing else is close.
            assert len(expected) == 2 * side * (side - 1)
            assert exact_ties(positions, expected, radius) == len(expected)
        assert found(KDTreeDetector(), positions, radius) == expected

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("integral", [True, False])
    def test_injected_exact_radius_pairs(self, seed, integral):
        radius = 100.0
        rng = np.random.default_rng(seed)
        base = rng.uniform(0.0, 3000.0, size=(300, 2))
        if integral:
            base = base.round()
        # Pythagorean offsets: dx*dx + dy*dy == 100**2 exactly.
        triples = np.array([[100, 0], [0, 100], [60, 80], [80, 60], [28, 96]])
        signs = rng.choice([-1.0, 1.0], size=(300, 2))
        offsets = triples[rng.integers(len(triples), size=300)] * signs
        positions = np.vstack([base, base + offsets])
        positions = positions[rng.permutation(len(positions))]
        expected = brute_truth(positions, radius)
        if integral:
            assert exact_ties(positions, expected, radius) >= 300
        assert found(KDTreeDetector(), positions, radius) == expected
