"""Exponential-distribution fitting for intermeeting times (paper Fig. 3).

The paper verifies that intermeeting times "approximately follow an
exponential distribution" under both scenarios and derives λ = 1/E(I).  We
fit by maximum likelihood (the sample mean) and report a Kolmogorov-Smirnov
statistic quantifying "approximately".
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class ExponentialFit:
    """MLE exponential fit plus goodness-of-fit."""

    mean: float  # E(I)
    rate: float  # λ = 1/E(I)
    n_samples: int
    ks_statistic: float
    ks_pvalue: float

    def pdf(self, x: np.ndarray) -> np.ndarray:
        """Fitted density λ e^{-λx}."""
        x = np.asarray(x, dtype=float)
        return self.rate * np.exp(-self.rate * np.clip(x, 0.0, None))


def fit_exponential(samples: np.ndarray) -> ExponentialFit:
    """Fit an exponential distribution to positive *samples* by MLE."""
    # Imported here, not at module level: scipy.stats is slow to import,
    # and a simulation run imports this package but never fits.
    from scipy import stats

    samples = np.asarray(samples, dtype=float)
    samples = samples[np.isfinite(samples)]
    if samples.size < 2:
        raise ConfigurationError(
            f"need at least 2 finite samples, got {samples.size}"
        )
    if np.any(samples <= 0):
        raise ConfigurationError("intermeeting samples must be positive")
    mean = float(samples.mean())
    ks = stats.kstest(samples, "expon", args=(0.0, mean))
    return ExponentialFit(
        mean=mean,
        rate=1.0 / mean,
        n_samples=int(samples.size),
        ks_statistic=float(ks.statistic),
        ks_pvalue=float(ks.pvalue),
    )


def histogram_pdf(
    samples: np.ndarray, bins: int = 30
) -> tuple[np.ndarray, np.ndarray]:
    """(bin centers, empirical density) — the bars of Fig. 3."""
    samples = np.asarray(samples, dtype=float)
    if samples.size == 0:
        raise ConfigurationError("no samples to histogram")
    density, edges = np.histogram(samples, bins=bins, density=True)
    centers = 0.5 * (edges[:-1] + edges[1:])
    return centers, density
