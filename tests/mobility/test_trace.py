"""Trace playback: interpolation, clamping, resampling."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.mobility.trace import TraceMobility


def simple_trace():
    times = np.array([0.0, 10.0, 20.0])
    positions = np.array(
        [
            [[0.0, 0.0], [100.0, 0.0]],
            [[10.0, 0.0], [100.0, 10.0]],
            [[20.0, 0.0], [100.0, 20.0]],
        ]
    )
    m = TraceMobility(times, positions)
    m.initialize(np.random.default_rng(0))
    return m


class TestInterpolation:
    def test_exact_sample_times(self):
        m = simple_trace()
        assert np.allclose(m.advance(0.0), [[0, 0], [100, 0]])
        assert np.allclose(m.advance(10.0), [[10, 0], [100, 10]])

    def test_linear_between_samples(self):
        m = simple_trace()
        pos = m.advance(5.0)
        assert np.allclose(pos, [[5.0, 0.0], [100.0, 5.0]])

    def test_holds_after_last_sample(self):
        m = simple_trace()
        assert np.allclose(m.advance(100.0), [[20, 0], [100, 20]])

    def test_fractional_interpolation(self):
        m = simple_trace()
        assert np.allclose(m.advance(12.5), [[12.5, 0.0], [100.0, 12.5]])


class TestValidation:
    def test_needs_two_samples(self):
        with pytest.raises(ConfigurationError):
            TraceMobility(np.array([0.0]), np.zeros((1, 2, 2)))

    def test_times_strictly_increasing(self):
        with pytest.raises(ConfigurationError):
            TraceMobility(np.array([0.0, 0.0]), np.zeros((2, 2, 2)))

    def test_shape_mismatch(self):
        with pytest.raises(ConfigurationError):
            TraceMobility(np.array([0.0, 1.0]), np.zeros((3, 2, 2)))

    @pytest.mark.parametrize("times", [
        [0.0, np.nan], [0.0, 1.0, np.inf], [-np.inf, 0.0, 1.0],
    ])
    def test_times_must_be_finite(self, times):
        # Each passes the strictly-increasing check (NaN compares False).
        with pytest.raises(ConfigurationError, match="times must be finite"):
            TraceMobility(np.array(times), np.zeros((len(times), 2, 2)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_positions_must_be_finite(self, bad):
        # Otherwise the area comes out NaN or infinite, and the first tick
        # holding the value dies inside contact detection.
        positions = np.zeros((2, 2, 2))
        positions[1, 0, 0] = bad
        with pytest.raises(ConfigurationError, match="positions must be finite"):
            TraceMobility(np.array([0.0, 1.0]), positions)


class TestResampling:
    def test_from_node_samples_aligns_irregular_gps(self):
        node0 = (np.array([0.0, 100.0]), np.array([[0.0, 0.0], [100.0, 0.0]]))
        node1 = (np.array([0.0, 50.0, 100.0]),
                 np.array([[0.0, 10.0], [0.0, 60.0], [0.0, 110.0]]))
        m = TraceMobility.from_node_samples([node0, node1], grid_step=25.0)
        m.initialize(np.random.default_rng(0))
        pos = m.advance(50.0)
        assert pos[0] == pytest.approx([50.0, 0.0])
        assert pos[1] == pytest.approx([0.0, 60.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_from_node_samples_rejects_non_finite_samples(self, bad):
        # An infinite sample time interpolates to finite garbage.
        times = np.array([0.0, 50.0, bad])
        with pytest.raises(ConfigurationError, match="node 0: samples must be finite"):
            TraceMobility.from_node_samples([(times, np.zeros((3, 2)))])
        positions = np.array([[0.0, 0.0], [bad, 0.0]])
        with pytest.raises(ConfigurationError, match="node 0: samples must be finite"):
            TraceMobility.from_node_samples([(np.array([0.0, 50.0]), positions)])

    def test_from_node_samples_validation(self):
        with pytest.raises(ConfigurationError):
            TraceMobility.from_node_samples([])
        with pytest.raises(ConfigurationError):
            TraceMobility.from_node_samples(
                [(np.array([0.0]), np.zeros((2, 2)))]
            )
