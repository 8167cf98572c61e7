"""StripePlan geometry and pair-ownership invariants.

The byte-identity of sharded runs rests on three properties pinned here:
stripe spans tile the map exactly, every pair is owned by exactly one
stripe, and the union of owned pairs over *any* grouping of stripes equals
the full detector output (so folds and degradation cannot change results).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.shard.partition import StripePlan
from repro.world.contacts import KDTreeDetector
from tests.world.test_contacts import brute_truth

AREA = (1000.0, 600.0)
RADIUS = 45.0


def positions_for(seed: int, n: int = 60) -> np.ndarray:
    rng = np.random.default_rng(seed)
    pos = rng.uniform((0.0, 0.0), AREA, size=(n, 2))
    # Park some nodes exactly on stripe edges to exercise half-open
    # boundaries, and some just outside the map (clamped ownership).
    pos[0] = (250.0, 10.0)
    pos[1] = (500.0, 10.0)
    pos[2] = (-5.0, 10.0)
    pos[3] = (AREA[0] + 5.0, 10.0)
    return pos


def full_pairs(positions: np.ndarray) -> set[tuple[int, int]]:
    return brute_truth(positions, RADIUS)


class TestGeometry:
    @pytest.mark.parametrize("count", [1, 2, 3, 4, 7])
    def test_spans_tile_the_width(self, count):
        plan = StripePlan.for_area(AREA, count)
        assert len(plan.spans) == count
        assert plan.spans[0][0] == 0.0
        assert plan.spans[-1][1] == AREA[0]
        for (_, hi), (lo, _) in zip(plan.spans, plan.spans[1:]):
            assert hi == lo, "spans must be contiguous with no float gap"

    def test_owners_clamp_outside_the_map(self):
        plan = StripePlan.for_area(AREA, 4)
        owners = plan.owners(np.asarray([-10.0, 0.0, 999.9, 1000.0, 1010.0]))
        assert owners.tolist() == [0, 0, 3, 3, 3]

    def test_every_midpoint_owns_exactly_one_stripe(self):
        plan = StripePlan.for_area(AREA, 3)
        # An internal edge belongs to the span it opens (half-open spans).
        edge = plan.spans[1][0]
        assert plan.owners(np.asarray([edge])).tolist() == [1]
        assert plan.owners(np.asarray([np.nextafter(edge, 0.0)])).tolist() == [0]

    def test_candidate_indices_validate(self):
        plan = StripePlan.for_area(AREA, 2)
        pos = positions_for(0)
        with pytest.raises(ConfigurationError):
            plan.candidate_indices(pos, (0,), 0.0)
        with pytest.raises(ConfigurationError):
            plan.candidate_indices(pos, (2,), RADIUS)


class TestOwnership:
    @pytest.mark.parametrize("count", [1, 2, 3, 4])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_singleton_stripes_partition_the_full_pair_set(self, count, seed):
        plan = StripePlan.for_area(AREA, count)
        pos = positions_for(seed)
        detector = KDTreeDetector()
        per_stripe = [
            set(plan.owned_pairs(pos, RADIUS, detector, (s,)))
            for s in range(count)
        ]
        union: set[tuple[int, int]] = set()
        for owned in per_stripe:
            assert union.isdisjoint(owned), "a pair has two owners"
            union |= owned
        assert union == full_pairs(pos)

    def test_grouped_stripes_equal_their_singleton_union(self):
        """Folding stripes into one computer changes nothing — the exact
        property degradation relies on."""
        plan = StripePlan.for_area(AREA, 4)
        pos = positions_for(7)
        detector = KDTreeDetector()
        grouped = set(plan.owned_pairs(pos, RADIUS, detector, (0, 2, 3)))
        singles = (
            set(plan.owned_pairs(pos, RADIUS, detector, (0,)))
            | set(plan.owned_pairs(pos, RADIUS, detector, (2,)))
            | set(plan.owned_pairs(pos, RADIUS, detector, (3,)))
        )
        assert grouped == singles

    def test_candidate_window_is_a_superset_of_owned_endpoints(self):
        plan = StripePlan.for_area(AREA, 4)
        pos = positions_for(13)
        detector = KDTreeDetector()
        for s in range(4):
            candidates = set(plan.candidate_indices(pos, (s,), RADIUS).tolist())
            for i, j in plan.owned_pairs(pos, RADIUS, detector, (s,)):
                assert i in candidates and j in candidates

    def test_empty_assignment_owns_nothing(self):
        plan = StripePlan.for_area(AREA, 2)
        pos = positions_for(17)
        assert plan.owned_pairs(pos, RADIUS, KDTreeDetector(), ()) == []

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000), count=st.integers(1, 6))
    def test_partition_property_holds_for_random_fleets(self, seed, count):
        plan = StripePlan.for_area(AREA, count)
        pos = positions_for(seed, n=30)
        detector = KDTreeDetector()
        union: set[tuple[int, int]] = set()
        total = 0
        for s in range(count):
            owned = plan.owned_pairs(pos, RADIUS, detector, (s,))
            total += len(owned)
            union |= set(owned)
        assert union == full_pairs(pos)
        assert total == len(union), "a pair has two owners"
