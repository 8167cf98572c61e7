"""Exponential fitting (Fig. 3 machinery)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.fitting import fit_exponential, histogram_pdf
from repro.errors import ConfigurationError


def test_recovers_known_rate():
    rng = np.random.default_rng(0)
    samples = rng.exponential(scale=500.0, size=5000)
    fit = fit_exponential(samples)
    assert fit.mean == pytest.approx(500.0, rel=0.05)
    assert fit.rate == pytest.approx(1 / 500.0, rel=0.05)
    assert fit.n_samples == 5000
    # Exponential data must not be rejected by its own fit.
    assert fit.ks_pvalue > 0.01


def test_detects_non_exponential():
    rng = np.random.default_rng(1)
    samples = rng.uniform(100.0, 200.0, size=5000)
    fit = fit_exponential(samples)
    assert fit.ks_pvalue < 0.001


def test_pdf():
    fit = fit_exponential(np.random.default_rng(2).exponential(100.0, 1000))
    x = np.array([0.0, fit.mean])
    assert fit.pdf(x)[0] == pytest.approx(fit.rate)


def test_validation():
    with pytest.raises(ConfigurationError):
        fit_exponential(np.array([1.0]))
    with pytest.raises(ConfigurationError):
        fit_exponential(np.array([1.0, -2.0]))


def test_histogram_pdf_normalized():
    rng = np.random.default_rng(3)
    samples = rng.exponential(100.0, 20_000)
    centers, density = histogram_pdf(samples, bins=40)
    width = centers[1] - centers[0]
    assert (density * width).sum() == pytest.approx(1.0, rel=0.01)


def test_histogram_empty():
    with pytest.raises(ConfigurationError):
        histogram_pdf(np.array([]))
