"""DelayModel machinery and the two model builders against closed forms."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.analytic.epidemic import epidemic_delay_model
from repro.analytic.model import DelayModel
from repro.analytic.snw import direct_delay_model, snw_delay_model
from repro.errors import ConfigurationError

RATE = 1.0e-3
WINDOW = 3000.0


def test_direct_matches_exponential_cdf():
    """One relay pair: F(t) = 1 − e^{−λt} exactly (expm correctness)."""
    model = direct_delay_model(rate=RATE, window=WINDOW)
    expected = 1.0 - np.exp(-RATE * model.times)
    np.testing.assert_allclose(model.cdf, expected, atol=1e-9)
    # And the analytic integral G(W) = W − (1 − e^{−λW})/λ.
    # And the cached trapezoid integral G(W) = W − (1 − e^{−λW})/λ up to
    # the 512-interval grid's discretization error.
    g = WINDOW - (1.0 - math.exp(-RATE * WINDOW)) / RATE
    assert model.int_cdf(WINDOW) == pytest.approx(g, rel=1e-5)


def test_snw_cdf_is_monotone_and_bounded():
    for source in (False, True):
        model = snw_delay_model(
            n_nodes=40, copies=8, rate=RATE, window=WINDOW,
            source_spray=source,
        )
        assert model.cdf[0] == pytest.approx(0.0, abs=1e-12)
        assert np.all(np.diff(model.cdf) >= -1e-12)
        assert model.cdf[-1] <= 1.0 + 1e-12
        assert np.all(model.mean_copies >= 1.0 - 1e-9)
        assert np.all(model.mean_copies <= 8.0 + 1e-9)


def test_more_copies_deliver_faster():
    few = snw_delay_model(n_nodes=40, copies=2, rate=RATE, window=WINDOW)
    many = snw_delay_model(n_nodes=40, copies=16, rate=RATE, window=WINDOW)
    assert many.ratio_at(WINDOW) > few.ratio_at(WINDOW)
    # Binary spray reaches the budget faster than source spray.
    source = snw_delay_model(
        n_nodes=40, copies=16, rate=RATE, window=WINDOW, source_spray=True
    )
    assert many.int_copies(WINDOW) >= source.int_copies(WINDOW)


def test_thinning_slows_the_spray():
    full = snw_delay_model(n_nodes=40, copies=8, rate=RATE, window=WINDOW)
    thinned = snw_delay_model(
        n_nodes=40, copies=8, rate=RATE, window=WINDOW, thin=0.3
    )
    assert thinned.ratio_at(WINDOW) < full.ratio_at(WINDOW)
    assert thinned.int_copies(WINDOW) < full.int_copies(WINDOW)
    with pytest.raises(ConfigurationError):
        snw_delay_model(
            n_nodes=40, copies=8, rate=RATE, window=WINDOW, thin=0.0
        )


def test_single_copy_spray_equals_direct():
    spray = snw_delay_model(n_nodes=2, copies=1, rate=RATE, window=WINDOW)
    direct = direct_delay_model(rate=RATE, window=WINDOW)
    np.testing.assert_allclose(spray.cdf, direct.cdf, atol=1e-12)


def test_epidemic_matches_logistic_closed_form():
    """With effectively infinite buffers the mean-field reliability is
    P(t) = 1 − N/(N − 1 + e^{λNt}) (arXiv 1601.06345, ρ = 0)."""
    n = 50
    model, rho = epidemic_delay_model(
        n_nodes=n, rate=RATE, window=WINDOW, gen_rate=1e-6,
        buffer_capacity_msgs=1e9,
    )
    assert rho == 0.0
    tau = RATE * n * model.times
    expected = 1.0 - n / (n - 1.0 + np.exp(tau))
    np.testing.assert_allclose(model.cdf, expected, atol=5e-3)


def test_epidemic_blocking_reduces_delivery():
    open_model, rho0 = epidemic_delay_model(
        n_nodes=30, rate=RATE, window=WINDOW, gen_rate=0.02,
        buffer_capacity_msgs=1e9,
    )
    tight_model, rho1 = epidemic_delay_model(
        n_nodes=30, rate=RATE, window=WINDOW, gen_rate=0.02,
        buffer_capacity_msgs=2.0,
    )
    assert rho0 == 0.0
    assert 0.0 < rho1 <= 0.95
    # Both CDFs saturate by the full window (λNW ≈ 90), so compare while
    # the epidemic is still spreading and via the cumulative integral.
    assert tight_model.ratio_at(150.0) < open_model.ratio_at(150.0)
    assert tight_model.int_cdf(WINDOW) < open_model.int_cdf(WINDOW)


def test_horizon_averages_are_sane():
    model = snw_delay_model(n_nodes=20, copies=8, rate=RATE, window=WINDOW)
    ratio = model.horizon_delivery_ratio(6000.0, WINDOW)
    assert 0.0 < ratio < 1.0
    # Horizon averaging can only lower the ratio versus the full window.
    assert ratio <= model.ratio_at(WINDOW) + 1e-12
    delay = model.horizon_mean_delay(6000.0, WINDOW)
    assert 0.0 < delay < WINDOW
    hops = model.mean_hops(WINDOW)
    assert 1.0 <= hops <= math.log2(8) + 1.0 + 1e-9


def test_mean_hops_nan_when_nothing_delivered():
    model = direct_delay_model(rate=RATE, window=WINDOW)
    assert math.isnan(model.mean_hops(0.0))


def test_delay_model_validates_grids():
    t = np.linspace(0.0, 10.0, 8)
    with pytest.raises(ConfigurationError):
        DelayModel(t, t[:4], t, t)
    with pytest.raises(ConfigurationError):
        DelayModel(t[:1], t[:1], t[:1], t[:1])
