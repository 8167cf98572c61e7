"""Synthetic taxi fleet: the statistical features the EPFL substitute claims.

DESIGN.md §1 promises the substitute preserves (a) hotspot aggregation,
(b) fewer contacts than RWP at equal density, (c) roughly exponential
intermeeting tails.  (a) and (b) are asserted here; (c) is exercised by the
Fig. 3 benchmark and tests/integration/test_reproduction_shape.py.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.mobility.taxi import TaxiFleet
from repro.snapshot.capture import _capture_mobility
from repro.snapshot.codec import encode_array
from repro.snapshot.restore import _restore_mobility


def make(n=30, seed=0, **kw):
    m = TaxiFleet(n, **kw)
    m.initialize(np.random.default_rng(seed))
    return m


class TestValidation:
    def test_bad_params(self):
        with pytest.raises(ConfigurationError):
            TaxiFleet(10, n_hotspots=0)
        with pytest.raises(ConfigurationError):
            TaxiFleet(10, hotspot_prob=1.5)
        with pytest.raises(ConfigurationError):
            TaxiFleet(10, hotspot_sigma=0.0)


class TestMovement:
    def test_stays_in_area(self):
        m = make(seed=3)
        w, h = m.area
        for t in range(0, 3000, 100):
            pos = m.advance(float(t))
            assert np.all((pos[:, 0] >= 0) & (pos[:, 0] <= w))
            assert np.all((pos[:, 1] >= 0) & (pos[:, 1] <= h))

    def test_deterministic(self):
        a, b = make(seed=4), make(seed=4)
        assert np.array_equal(a.advance(1000.0), b.advance(1000.0))


class TestAggregation:
    def _mean_hotspot_distance(self, m: TaxiFleet, samples: int = 30) -> float:
        dists = []
        for t in range(0, samples * 100, 100):
            pos = m.advance(float(t))
            d = np.min(
                np.hypot(
                    pos[:, None, 0] - m.hotspots[None, :, 0],
                    pos[:, None, 1] - m.hotspots[None, :, 1],
                ),
                axis=1,
            )
            dists.append(d.mean())
        return float(np.mean(dists))

    def test_taxis_cluster_near_hotspots(self):
        clustered = make(seed=5, hotspot_prob=0.9)
        diffuse = make(seed=5, hotspot_prob=0.0)
        # Compare against the same hotspot layout: copy it over.
        diffuse._hotspots = clustered.hotspots.copy()
        assert (
            self._mean_hotspot_distance(clustered)
            < 0.6 * self._mean_hotspot_distance(diffuse)
        )

    def test_pairwise_meeting_rates_are_heterogeneous(self):
        """Some pairs co-locate far more than others (unlike RWP)."""
        m = make(n=20, seed=6)
        close_counts = np.zeros((20, 20))
        for t in range(0, 20000, 50):
            pos = m.advance(float(t))
            d = np.hypot(
                pos[:, None, 0] - pos[None, :, 0],
                pos[:, None, 1] - pos[None, :, 1],
            )
            close_counts += d < 200.0
        iu = np.triu_indices(20, k=1)
        rates = close_counts[iu]
        assert rates.max() > 4 * max(rates.min(), 1)


class TestHotspotTargets:
    def test_targets_biased_toward_hotspots(self):
        m = make(seed=7, hotspot_prob=1.0, hotspot_sigma=100.0)
        rng = np.random.default_rng(8)
        targets = m.sample_targets(500, rng)
        d = np.min(
            np.hypot(
                targets[:, None, 0] - m.hotspots[None, :, 0],
                targets[:, None, 1] - m.hotspots[None, :, 1],
            ),
            axis=1,
        )
        # Nearly all targets within ~4 sigma of some hotspot.
        assert (d < 400.0).mean() > 0.95

    def test_zipf_weights_favor_first_hotspot(self):
        m = make(seed=9, n_hotspots=5, hotspot_prob=1.0, hotspot_sigma=1.0)
        rng = np.random.default_rng(10)
        targets = m.sample_targets(2000, rng)
        nearest = np.argmin(
            np.hypot(
                targets[:, None, 0] - m.hotspots[None, :, 0],
                targets[:, None, 1] - m.hotspots[None, :, 1],
            ),
            axis=1,
        )
        counts = np.bincount(nearest, minlength=5)
        assert counts[0] == counts.max()
        assert counts[0] > 2.5 * counts[4]


def choice_targets(
    m: TaxiFleet, n: int, rng: np.random.Generator
) -> np.ndarray:
    """The fare draw as it was written with ``rng.choice`` (the reference)."""
    w, h = m.area
    out = rng.uniform((0.0, 0.0), (w, h), size=(n, 2))
    to_hotspot = rng.random(n) < m.hotspot_prob
    k = int(to_hotspot.sum())
    if k:
        which = rng.choice(m.n_hotspots, size=k, p=m._weights)
        scatter = rng.normal(0.0, m.hotspot_sigma, size=(k, 2))
        pts = m._hotspots[which] + scatter
        pts[:, 0] = np.clip(pts[:, 0], 0.0, w)
        pts[:, 1] = np.clip(pts[:, 1], 0.0, h)
        out[to_hotspot] = pts
    return out


def assert_same_draws(m: TaxiFleet, seed: int, calls: int = 3000) -> None:
    """*m*'s fares equal the reference's, call by call, from one seed."""
    ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
    for call in range(calls):
        # One to a few taxis per arrival round, and a whole fleet's first
        # waypoints now and then.
        n = (0, 1, 2, 3, 4, 5, 200)[call % 7]
        got, want = m.sample_targets(n, ours), choice_targets(m, n, theirs)
        assert got.tobytes() == want.tobytes(), call
    assert ours.bit_generator.state == theirs.bit_generator.state


class TestSameDraws:
    """``sample_targets`` looks the hotspot up in a cdf built once; it must
    draw exactly what ``rng.choice(n_hotspots, p=weights)`` drew."""

    @pytest.mark.parametrize("n_hotspots", [1, 2, 6, 17])
    def test_fares_match_rng_choice(self, n_hotspots):
        # A scatter this wide puts many fares past the city's edge, where
        # they are clipped.
        m = make(seed=n_hotspots, n_hotspots=n_hotspots, hotspot_sigma=2500.0)
        assert_same_draws(m, seed=20 + n_hotspots)

    def test_fares_match_after_a_snapshot_restore(self):
        # Restore overwrites the weights, and the cdf must follow them:
        # weights other than those the fleet was built with show a stale
        # cdf.
        source = make(seed=11)
        data = _capture_mobility(source)
        data["weights"] = encode_array(source._weights[::-1].copy())
        restored = make(seed=12)
        _restore_mobility(restored, data)
        assert restored._weights.tolist() == source._weights[::-1].tolist()
        assert_same_draws(restored, seed=13)
