"""The paper's equations (4-13): values, equivalences, monotonicity, peak."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.priority import (
    PEAK_P_R,
    delivery_probability,
    exponent_coefficient,
    p_delivered,
    p_remaining,
    priority_closed_form,
    priority_closed_form_scalar,
    priority_from_probabilities,
    priority_taylor,
    priority_taylor_scalar,
)
from repro.errors import ConfigurationError

N = 100
LAM = 1e-4

# Strategy producing sensible (C, R, m, n) operating points.
points = st.tuples(
    st.sampled_from([1, 2, 4, 8, 16, 32, 64]),  # C_i
    st.floats(min_value=1.0, max_value=20_000.0),  # R_i
    st.integers(min_value=0, max_value=N - 1),  # m_i
    st.integers(min_value=1, max_value=N - 1),  # n_i
)


class TestExponentCoefficient:
    def test_single_copy_reduces_to_remaining_ttl(self):
        # C=1: log2(C)=0, so A = R exactly.
        assert exponent_coefficient(1, 1234.0, LAM, N) == pytest.approx(1234.0)

    def test_hand_computed_value(self):
        # C=4: A = 3R - 2*3/(2*99*lam)
        expected = 3 * 1000.0 - 6 / (2 * 99 * LAM)
        assert exponent_coefficient(4, 1000.0, LAM, N) == pytest.approx(expected)

    def test_negative_for_tiny_ttl_and_many_copies(self):
        assert exponent_coefficient(64, 0.1, LAM, N) < 0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            exponent_coefficient(1, 100.0, 0.0, N)
        with pytest.raises(ConfigurationError):
            exponent_coefficient(0.5, 100.0, LAM, N)
        with pytest.raises(ConfigurationError):
            exponent_coefficient(1, 100.0, LAM, 1)

    def test_vectorized(self):
        out = exponent_coefficient(np.array([1, 4]), np.array([100.0, 100.0]),
                                   LAM, N)
        assert out.shape == (2,)


class TestEq5:
    def test_fraction_of_seen(self):
        assert p_delivered(0, N) == 0.0
        assert p_delivered(99, N) == 1.0
        assert p_delivered(33, N) == pytest.approx(33 / 99)

    def test_clipped_against_overestimates(self):
        assert p_delivered(500, N) == 1.0


class TestEq6:
    def test_in_unit_interval_for_positive_coefficient(self):
        pr = p_remaining(8, 10_000.0, 5, LAM, N)
        assert 0.0 < float(pr) < 1.0

    def test_more_holders_increase_p_remaining(self):
        lo = p_remaining(8, 5_000.0, 1, LAM, N)
        hi = p_remaining(8, 5_000.0, 20, LAM, N)
        assert float(hi) > float(lo)

    def test_longer_ttl_increases_p_remaining(self):
        lo = p_remaining(8, 1_000.0, 5, LAM, N)
        hi = p_remaining(8, 10_000.0, 5, LAM, N)
        assert float(hi) > float(lo)

    def test_negative_when_expired(self):
        # R < 0 gives a (meaningless but finite) negative probability that
        # still ranks expired messages at the bottom.
        assert float(p_remaining(1, -100.0, 1, LAM, N)) < 0.0


class TestEq7:
    def test_combines_both_terms(self):
        pt = float(p_delivered(33, N))
        pr = float(p_remaining(8, 5_000.0, 4, LAM, N))
        expected = pt + (1 - pt) * pr
        got = float(delivery_probability(8, 5_000.0, 33, 4, LAM, N))
        assert got == pytest.approx(expected)

    def test_already_delivered_dominates(self):
        assert float(delivery_probability(1, 100.0, 99, 1, LAM, N)) == 1.0


class TestEq10And11Equivalence:
    @given(points)
    def test_closed_form_equals_probability_form(self, point):
        c, r, m, n = point
        u10 = float(priority_closed_form(c, r, m, n, LAM, N))
        pt = float(p_delivered(m, N))
        pr = float(p_remaining(c, r, n, LAM, N))
        u11 = float(priority_from_probabilities(pt, pr, n))
        # Eq. 11 carries a 1/n_i factor; Eq. 10's λA e^{-λnA} equals
        # (P(R)-1) ln(1-P(R)) / n — same quantity.  Tolerance is loose
        # because 1-P(R) suffers catastrophic cancellation near saturation.
        assert u10 == pytest.approx(u11, rel=1e-5, abs=1e-12)

    def test_hand_computed_point(self):
        # C=1, R s.t. lam*n*A = 1 -> P(R) = 1 - 1/e (the peak, Eq. 12).
        n = 2
        r = 1.0 / (LAM * n)
        u = float(priority_closed_form(1, r, 0, n, LAM, N))
        # At the peak: U = lam * A * e^{-1} = (1/n) e^{-1}
        assert u == pytest.approx(np.exp(-1.0) / n)


class TestMonotonicity:
    @given(points)
    def test_priority_decreases_with_p_delivered(self, point):
        c, r, m, n = point
        if m + 5 > N - 1:
            m = N - 6
        lo = float(priority_closed_form(c, r, m, n, LAM, N))
        hi = float(priority_closed_form(c, r, m + 5, n, LAM, N))
        # "higher delivered probability leads to lower priority"
        if lo > 0:
            assert hi <= lo + 1e-12

    @given(points)
    def test_more_holders_lower_priority_for_positive_coeff(self, point):
        c, r, m, n = point
        coeff = float(exponent_coefficient(c, r, LAM, N))
        if coeff <= 0 or n + 5 > N - 1:
            return
        lo = float(priority_closed_form(c, r, m, n + 5, LAM, N))
        hi = float(priority_closed_form(c, r, m, n, LAM, N))
        assert lo <= hi + 1e-12


class TestPeak:
    def test_peak_of_eq11_at_1_minus_1_over_e(self):
        p_r = np.linspace(0.0, 0.9999, 20001)
        u = priority_from_probabilities(0.0, p_r, 1.0)
        peak = p_r[int(np.argmax(u))]
        assert peak == pytest.approx(PEAK_P_R, abs=1e-3)

    def test_rising_then_falling(self):
        u_low = float(priority_from_probabilities(0.0, 0.2, 1.0))
        u_peak = float(priority_from_probabilities(0.0, PEAK_P_R, 1.0))
        u_high = float(priority_from_probabilities(0.0, 0.95, 1.0))
        assert u_peak > u_low and u_peak > u_high

    def test_limit_at_certainty_is_zero(self):
        assert float(priority_from_probabilities(0.0, 1.0, 1.0)) == 0.0


class TestEq13Taylor:
    @given(
        st.floats(min_value=0.0, max_value=0.95),
        st.floats(min_value=0.0, max_value=0.9),
        st.integers(min_value=1, max_value=20),
    )
    def test_converges_to_eq11_from_below(self, p_r, p_t, terms):
        exact = float(priority_from_probabilities(p_t, p_r, 1.0))
        approx = float(priority_taylor(p_t, p_r, 1.0, terms=terms))
        better = float(priority_taylor(p_t, p_r, 1.0, terms=terms + 10))
        assert approx <= exact + 1e-12  # truncation underestimates
        assert abs(better - exact) <= abs(approx - exact) + 1e-12

    def test_high_term_count_matches_closely(self):
        p_r = np.linspace(0.0, 0.9, 50)
        exact = priority_from_probabilities(0.1, p_r, 2.0)
        approx = priority_taylor(0.1, p_r, 2.0, terms=200)
        assert np.allclose(exact, approx, atol=1e-8)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            priority_taylor(0.0, 0.5, 1.0, terms=0)


class TestNumericalRobustness:
    def test_huge_exponents_do_not_overflow(self):
        u = priority_closed_form(64, 1e9, 0, 99, 1e-3, N)
        assert np.isfinite(u)
        u = priority_closed_form(64, -1e9, 0, 99, 1e-3, N)
        assert np.isfinite(u)

    def test_vectorized_batch_matches_scalars(self):
        c = np.array([1, 4, 16, 64])
        r = np.array([100.0, 5_000.0, 10_000.0, 30.0])
        m = np.array([0, 10, 50, 98])
        n = np.array([1, 3, 9, 2])
        batch = priority_closed_form(c, r, m, n, LAM, N)
        for i in range(4):
            single = float(
                priority_closed_form(int(c[i]), float(r[i]), int(m[i]),
                                     int(n[i]), LAM, N)
            )
            assert batch[i] == pytest.approx(single)


class TestEq12PeakCondition:
    """Eq. 12: messages whose expected destination-encounter time equals the
    spray-adjusted TTL budget sit exactly at the P(R) = 1 - 1/e peak."""

    @pytest.mark.parametrize("c_i", [1, 2, 8, 32])
    @pytest.mark.parametrize("n_i", [1, 3, 10])
    def test_solving_eq12_lands_on_the_peak(self, c_i, n_i):
        k = np.log2(c_i)
        e_min = 1.0 / ((N - 1) * LAM)
        # Eq. 12: 1/(lam n) = (k+1) R - E(I_min) k(k+1)/2  ->  solve for R.
        r = (1.0 / (LAM * n_i) + e_min * k * (k + 1) / 2.0) / (k + 1.0)
        pr = float(p_remaining(c_i, r, n_i, LAM, N))
        assert pr == pytest.approx(PEAK_P_R, rel=1e-9)
        # And the priority there beats nearby R on both sides.
        u_peak = float(priority_closed_form(c_i, r, 0, n_i, LAM, N))
        u_lo = float(priority_closed_form(c_i, r * 0.5, 0, n_i, LAM, N))
        u_hi = float(priority_closed_form(c_i, r * 2.0, 0, n_i, LAM, N))
        assert u_peak > u_lo and u_peak > u_hi


# -- the scalar kernels the policy uses --------------------------------------


@st.composite
def kernel_inputs(draw):
    """(C, R, m, n, λ, N) over the ranges the simulator produces: every
    copy count up to 64 (odd splits give non-powers of two), R from just
    expired to a full Table II horizon, λ over six decades."""
    n_nodes = draw(st.sampled_from([40, 100, 200, 10_000]))
    return (
        draw(st.integers(min_value=1, max_value=64)),
        draw(st.floats(min_value=-100.0, max_value=18_000.0)),
        draw(st.integers(min_value=0, max_value=n_nodes)),
        draw(st.integers(min_value=1, max_value=n_nodes)),
        10.0 ** draw(st.floats(min_value=-7.0, max_value=-1.0)),
        n_nodes,
    )


def _taylor_broadcast(c, r, m, n, lam, n_nodes, terms):
    return priority_taylor(
        p_delivered(m, n_nodes), p_remaining(c, r, n, lam, n_nodes), n,
        terms=terms,
    )


def _error(fn, *args, **kwargs) -> str:
    with pytest.raises(ConfigurationError) as exc:
        fn(*args, **kwargs)
    return str(exc.value)


class TestScalarKernels:
    """The scalar kernels return the broadcasting functions' float64 bit
    for bit (``==``, not approx): the ranking, and so every golden, must
    not move."""

    @settings(max_examples=1000)
    @given(kernel_inputs())
    def test_closed_form_is_bit_identical(self, args):
        assert priority_closed_form_scalar(*args) == float(priority_closed_form(*args))

    @settings(max_examples=500)
    @given(kernel_inputs(), st.integers(min_value=1, max_value=12))
    def test_taylor_is_bit_identical(self, args, terms):
        expected = float(_taylor_broadcast(*args, terms))
        assert priority_taylor_scalar(*args, terms=terms) == expected

    def test_returns_python_floats(self):
        assert type(priority_closed_form_scalar(4, 100.0, 3, 2, LAM, N)) is float
        assert type(priority_taylor_scalar(4, 100.0, 3, 2, LAM, N)) is float

    @pytest.mark.parametrize("args", [
        (0, 100.0, 0, 1, LAM, N),      # C < 1
        (0.5, 100.0, 0, 1, LAM, N),
        (4, 100.0, 0, 1, 0.0, N),      # λ <= 0
        (4, 100.0, 0, 1, -LAM, N),
        (4, 100.0, 0, 1, LAM, 1),      # N < 2
        (0, 100.0, 0, 1, -LAM, 1),     # all three: the same one is reported
    ])
    def test_validation_parity(self, args):
        assert _error(priority_closed_form_scalar, *args) == _error(
            priority_closed_form, *args
        )
        assert _error(priority_taylor_scalar, *args, terms=4) == _error(
            _taylor_broadcast, *args, 4
        )

    def test_taylor_terms_validation_parity(self):
        args = (4, 100.0, 0, 1, LAM, N)
        assert _error(priority_taylor_scalar, *args, terms=0) == _error(
            _taylor_broadcast, *args, 0
        )
