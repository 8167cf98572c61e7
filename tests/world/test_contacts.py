"""The KD-tree contact detector: correctness of its sorted link keys,
agreement with O(N^2) references, exact radius ties at scale, and a
candidate list that never changes a result however positions move."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.world import contacts
from repro.world.contacts import KDTreeDetector, decode
from tests.helpers import best_of

DETECTORS = [KDTreeDetector()]


def brute_truth(positions: np.ndarray, radius: float) -> set[tuple[int, int]]:
    """O(N^2) reference in the detector's own arithmetic: a pair is a
    contact iff ``dx*dx + dy*dy <= r*r``, so exact ties count."""
    dx = positions[:, None, 0] - positions[None, :, 0]
    dy = positions[:, None, 1] - positions[None, :, 1]
    close = np.triu(dx * dx + dy * dy <= radius * radius, k=1)
    i, j = np.nonzero(close)
    return set(zip(i.tolist(), j.tolist()))


def found(
    detector, positions: np.ndarray, radius: float, drift: float = math.inf
) -> set[tuple[int, int]]:
    """The detector's pairs, decoded from its keys, which must be sorted
    int64 with one key per pair."""
    keys = detector.pairs(positions, radius, drift)
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


def python_pair_loop(positions: np.ndarray,
                     radius: float) -> set[tuple[int, int]]:
    """The per-pair Python loop the detector replaces."""
    n = positions.shape[0]
    close = set()
    for i in range(n):
        for j in range(i + 1, n):
            diff = positions[i] - positions[j]
            if float(diff @ diff) <= radius * radius:
                close.add((i, j))
    return close


def test_kdtree_beats_the_python_pair_loop_fivefold():
    # A fresh detector per call: a rebuild, never a cached candidate list.
    positions = np.random.default_rng(0).uniform(0, 5000.0, size=(500, 2))
    assert found(KDTreeDetector(), positions, 100.0) == python_pair_loop(
        positions, 100.0
    )
    python_s = best_of(lambda: python_pair_loop(positions, 100.0))
    kdtree_s = best_of(lambda: KDTreeDetector().pairs(positions, 100.0))
    assert python_s / kdtree_s >= 5.0


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


@pytest.fixture
def tree_builds(monkeypatch):
    """Count the detector's ``cKDTree`` constructions (its rebuilds)."""
    builds = []
    real = contacts.cKDTree

    def counted(positions):
        builds.append(len(positions))
        return real(positions)

    monkeypatch.setattr(contacts, "cKDTree", counted)
    return builds


#: The drift bound the world hands the detector each tick for the taxis:
#: 14 m/s over a 1 s tick.
FAST = 14.0


def threshold(skin: float) -> float:
    """The largest displacement that keeps candidates gathered with *skin*."""
    return skin * contacts._HALF_SKIN


class Tracked:
    """A detector driven as the world drives it: each call hands it a drift
    that holds (the farthest any node moved since the call before, or more,
    and never less than *fleet*, a fleet's per-call speed bound) and is
    checked against the O(N^2) reference, and so are its flips."""

    def __init__(self, data, fleet: float = 0.0) -> None:
        self.data = data
        self.fleet = fleet
        self.detector = KDTreeDetector()
        self.seen: np.ndarray | None = None
        self.keys = np.empty(0, dtype=np.int64)
        self.truth: set[tuple[int, int]] = set()

    def check(self, positions: np.ndarray, radius: float, step: str) -> None:
        detector, before = self.detector, self.keys
        seen, anchor = self.seen, detector._anchor
        if seen is None or seen.shape != positions.shape:
            drift = math.inf
        else:
            drift = float(np.hypot(*(positions - seen).T).max())
            drift *= self.data.draw(st.sampled_from([1.0, 1.5]), label="slack")
            drift = max(drift, self.fleet)
        keys = detector.pairs(positions, radius, drift)
        truth = brute_truth(positions, radius)
        n = positions.shape[0]
        assert set(decode(keys, n)) == truth, step
        changes = detector.changes(before)
        if keys is before:
            assert truth == self.truth, step
        elif changes is not None:
            gone, came = (decode(k, n) for k in changes)
            assert gone == sorted(self.truth - truth), step
            assert came == sorted(truth - self.truth), step
        else:
            assert detector._anchor is not anchor, f"{step}: no rebuild, no flips"
        self.seen, self.keys, self.truth = positions.copy(), keys, truth


class TestCandidateList:
    """One detector over moving positions: every call equals the O(N^2)
    reference, whether it reused its candidates or rebuilt them, and so do
    the flips it reports."""

    @given(st.data())
    @settings(max_examples=200)
    def test_every_call_matches_the_reference(self, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        radius = data.draw(st.sampled_from([100.0, 37.3, 5.0]), label="radius")
        n = data.draw(st.integers(min_value=2, max_value=40), label="n")
        positions = rng.uniform(0.0, 8 * radius, size=(n, 2))
        detector = KDTreeDetector()
        # Drifts of a 2 m/s walker fleet or less keep the floor skin; those
        # of the 14 m/s taxis grow it (at radius 100) or hit its ceiling.
        tracked = Tracked(data, data.draw(
            st.sampled_from([0.0, FAST]), label="fleet drift"
        ))
        for _ in range(data.draw(st.integers(min_value=1, max_value=15))):
            step = data.draw(st.sampled_from(
                ["small", "in-place", "teleport", "tie", "approach", "resize",
                 "radius"]
            ))
            n = len(positions)
            a, b = rng.choice(n, size=2, replace=False)
            if step == "small":
                # Under half a skin: the candidates stand.
                positions = positions + rng.uniform(-0.2, 0.2, (n, 2)) * radius
            elif step == "in-place":
                # The array the detector saw last call, edited in place, as
                # the waypoint engine moves its live position array; some
                # moves cross the rebuild threshold, some do not.
                positions += rng.uniform(-0.45, 0.45, (n, 2)) * radius
            elif step == "teleport":
                positions = positions.copy()
                positions[a] = rng.uniform(0.0, 8 * radius, 2)
            elif step == "tie":
                # Move b onto a's range boundary, exactly when the arithmetic
                # allows: an integral corner and a Pythagorean offset.
                positions = positions.copy()
                positions[a] = positions[a].round()
                legs = [(1.0, 0.0), (0.0, 1.0), (0.6, 0.8), (0.8, 0.6)]
                leg = np.array(legs[rng.integers(len(legs))]) * radius
                positions[b] = positions[a] + leg * rng.choice([-1.0, 1.0], 2)
            elif step == "approach":
                # Put b just past the skin radius from a, then close the pair
                # by up to the rebuild threshold at each end: the move a
                # candidate list must survive without a rebuild.  A detector
                # of its own rebuilds at the far positions with the skin a
                # drift gives it: the floor (no drift claimed) or a fast
                # fleet's grown skin.
                drift = data.draw(
                    st.sampled_from([math.inf, FAST]), label="skin drift"
                )
                skin = contacts.skin_for(radius, drift)
                own = KDTreeDetector()
                positions = positions.copy()
                unit = rng.normal(size=2)
                unit /= np.hypot(*unit)
                far = (radius + skin) * (1 + 1e-12)
                positions[b] = positions[a] + unit * far
                truth = brute_truth(positions, radius)
                assert found(detector, positions, radius) == truth
                assert found(own, positions, radius, drift) == truth
                assert own._skin == skin
                tracked.check(positions, radius, "approach: far")
                positions = positions.copy()
                closing = unit * threshold(skin) * rng.uniform(0.9, 1.0)
                positions[a] += closing
                positions[b] -= closing
                anchor = own._anchor
                assert found(own, positions, radius) == brute_truth(
                    positions, radius
                ), "approach: near"
                assert own._anchor is anchor, "approach: rebuilt"
            elif step == "resize":
                k = data.draw(st.integers(min_value=0, max_value=10))
                positions = np.vstack(
                    [positions, rng.uniform(0.0, 8 * radius, (k, 2))]
                )[: max(2, n - data.draw(st.integers(0, 5)) + k)]
            else:
                radius = data.draw(st.sampled_from([100.0, 37.3, 5.0]))
            assert found(detector, positions, radius) == brute_truth(
                positions, radius
            ), step
            tracked.check(positions, radius, step)

    def test_positions_edited_in_place(self):
        # The detector must keep its own copy of the positions it built
        # from: here the caller's array itself brings a far pair into range.
        positions = np.array([[0.0, 0.0], [500.0, 0.0]])
        detector = KDTreeDetector()
        assert found(detector, positions, 100.0) == set()
        positions[1, 0] = 50.0
        assert found(detector, positions, 100.0) == {(0, 1)}

    @pytest.mark.parametrize("offset", ["zero", "ulp", "1e-9"])
    def test_moving_by_the_threshold_keeps_left_out_pairs_out(
        self, tree_builds, offset
    ):
        # Nodes 0 and 1 start the skin radius R apart (node 1 just past it
        # by *offset*), then close in on each other by the rebuild threshold
        # each: no rebuild, and the pair must still be out of range.  The
        # first call's drift sizes the skin: the floor (no drift claimed),
        # or grown for a fast fleet; later calls claim no drift, so the
        # positions are tested.
        radius = 100.0
        for drift, skin in ((math.inf, radius), (FAST, 16 * FAST)):
            tree_builds.clear()
            assert contacts.skin_for(radius, drift) == skin
            far = radius + skin
            far = {"zero": far, "ulp": np.nextafter(far, np.inf),
                   "1e-9": far + 1e-9}[offset]
            positions = np.array([[0.0, 0.0], [far, 0.0], [0.0, 900.0]])
            detector = KDTreeDetector()
            assert found(detector, positions, radius, drift) == set()
            assert detector._skin == skin
            step = threshold(skin)
            end = far - step
            if far - end > step:  # the subtraction rounded: stay at the limit
                end = np.nextafter(end, np.inf)
            positions[0, 0] = step
            positions[1, 0] = end
            assert found(detector, positions, radius) == brute_truth(
                positions, radius
            ) == set(), skin
            assert len(tree_builds) == 1, f"skin {skin}: the threshold rebuilt"
            # One ulp further is over the threshold: the detector rebuilds.
            positions[1, 0] = np.nextafter(end, -np.inf)
            assert found(detector, positions, radius) == brute_truth(
                positions, radius
            ), skin
            assert len(tree_builds) == 2, skin

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_a_non_finite_coordinate_raises_on_the_next_call(self, bad):
        # Nothing else moved, so only a NaN-safe staleness test rebuilds and
        # lets cKDTree reject the value instead of dropping its contacts.
        positions = np.random.default_rng(6).uniform(0, 300, size=(30, 2))
        detector = KDTreeDetector()
        detector.pairs(positions, 60.0)
        positions[7, 1] = bad
        with pytest.raises(ValueError):
            detector.pairs(positions, 60.0)

    def test_a_slow_trajectory_reuses_its_candidates(self, tree_builds):
        rng = np.random.default_rng(7)
        positions = rng.uniform(0, 1000, size=(80, 2))
        heading = rng.uniform(-1.0, 1.0, size=(80, 2))  # <= 1.5 m per call
        detector = KDTreeDetector()
        calls = 200
        for _ in range(calls):
            positions += heading
            assert found(detector, positions, 100.0) == brute_truth(
                positions, 100.0
            )
        assert 1 <= len(tree_builds) <= calls // 10

    def test_a_fast_trajectory_grows_its_skin(self, tree_builds):
        # Nodes at 14 m/s in straight lines, each call handed the fleet's
        # drift bound: the grown skin is rebuilt every SKIN_CALLS calls,
        # where the floor skin, which the same moves get with no drift
        # claimed, is rebuilt every 4 (56 m past its 50 m half).
        rng = np.random.default_rng(8)
        start = rng.uniform(0, 3000, size=(80, 2))
        angle = rng.uniform(0.0, 2 * np.pi, size=80)
        heading = np.column_stack([np.cos(angle), np.sin(angle)]) * FAST
        calls = 200
        builds = {}
        for drift in (FAST, math.inf):
            tree_builds.clear()
            positions = start.copy()
            detector = KDTreeDetector()
            for _ in range(calls):
                positions += heading
                assert found(detector, positions, 100.0, drift) == (
                    brute_truth(positions, 100.0)
                )
            builds[drift] = len(tree_builds)
        assert builds[FAST] == calls // contacts.SKIN_CALLS
        assert builds[math.inf] == calls // 4

    @pytest.mark.parametrize("drift,skin", [
        (0.0, 100.0), (2.0, 100.0), (3.0, 100.0), (FAST, 224.0),
        (100.0, 400.0), (math.inf, 100.0), (math.nan, 100.0),
    ])
    def test_the_skin_rule(self, drift, skin):
        # At a 100 m radius the paper's walkers (2 m/s) and fleet-10k's
        # (3 m/s) keep the floor; the taxis grow it to 16 drifts; a drift
        # past the ceiling, or none claimed, gets the ceiling or the floor.
        assert contacts.skin_for(100.0, drift) == skin
