"""The common delay-model container both analytic models produce.

A :class:`DelayModel` is a delivery CDF ``F(t)`` for one *tagged message*
on a uniform age grid over the evaluation window ``W = min(TTL, horizon)``,
plus two companion trajectories: the expected number of live copies at age
``t`` (buffer-occupancy and relay accounting) and the expected relay-chain
depth of the copy that delivers at age ``t`` (hop-count accounting).

All scenario-level metrics are *horizon averages* over message creation
times: a message created at time ``s`` in a run of length ``T`` only has a
residual window ``w(s) = min(TTL, T − s)``, so

    delivery_ratio = (1/T) ∫₀ᵀ F(w(s)) ds

and similarly for the mean delay of delivered messages.  The closed forms
(docs/analytic.md) reduce every such average to the cached cumulative
integrals of ``F``, so queries are O(1) interpolations after the one-time
grid build.
"""

from __future__ import annotations

import numpy as np
from numpy.typing import NDArray

from repro.errors import ConfigurationError

__all__ = ["DelayModel"]

FloatArray = NDArray[np.float64]

#: Default grid resolution (intervals) of the age axis.
GRID_POINTS = 512


def _cumtrapz(y: FloatArray, dt: float) -> FloatArray:
    """Cumulative trapezoid integral of *y* on a uniform grid (starts at 0)."""
    out = np.empty_like(y)
    out[0] = 0.0
    np.cumsum((y[1:] + y[:-1]) * (0.5 * dt), out=out[1:])
    return out


class DelayModel:
    """Delivery CDF + copy/depth trajectories on a uniform age grid."""

    def __init__(
        self,
        times: FloatArray,
        cdf: FloatArray,
        mean_copies: FloatArray,
        depth: FloatArray,
    ) -> None:
        if not (times.shape == cdf.shape == mean_copies.shape == depth.shape):
            raise ConfigurationError("delay-model grids must share one shape")
        if times.size < 2:
            raise ConfigurationError("delay-model grid needs >= 2 points")
        self.times = times
        self.cdf = cdf
        self.mean_copies = mean_copies
        self.depth = depth
        self.window = float(times[-1])
        dt = float(times[1] - times[0])
        self._dt = dt
        #: G(t) = ∫₀ᵗ F — the workhorse of every horizon average.
        self._int_cdf = _cumtrapz(cdf, dt)
        #: ∫₀ᵗ E[copies] — cohort-summed buffer occupancy.
        self._int_copies = _cumtrapz(mean_copies, dt)
        #: ∫₀ᵗ depth·dF and ∫₀ᵗ n·dF via midpoint flux weights.
        flux = np.diff(cdf)
        mid_depth = 0.5 * (depth[1:] + depth[:-1])
        self._int_depth_flux = np.concatenate(
            ([0.0], np.cumsum(mid_depth * flux))
        )

    # -- point queries -------------------------------------------------------

    def ratio_at(self, window: float) -> float:
        """F(w): delivery probability within a residual window."""
        return float(np.interp(window, self.times, self.cdf))

    def int_cdf(self, window: float) -> float:
        """G(w) = ∫₀ʷ F(t) dt."""
        return float(np.interp(window, self.times, self._int_cdf))

    def copies_at(self, window: float) -> float:
        """E[live copies] at message age *window*."""
        return float(np.interp(window, self.times, self.mean_copies))

    def int_copies(self, window: float) -> float:
        """∫₀ʷ E[copies](t) dt (per-message copy-seconds)."""
        return float(np.interp(window, self.times, self._int_copies))

    # -- horizon averages ----------------------------------------------------

    def _clamped_window(self, horizon: float, ttl: float) -> float:
        w = min(ttl, horizon, self.window)
        if w <= 0:
            raise ConfigurationError(
                f"empty evaluation window: horizon={horizon}, ttl={ttl}"
            )
        return w

    def horizon_delivery_ratio(self, horizon: float, ttl: float) -> float:
        """(1/T) ∫₀ᵀ F(min(ttl, T−s)) ds."""
        w = self._clamped_window(horizon, ttl)
        total = self.int_cdf(w) + (horizon - w) * self.ratio_at(w)
        return min(1.0, max(0.0, total / horizon))

    def horizon_mean_delay(self, horizon: float, ttl: float) -> float:
        """Mean latency of messages delivered within their residual window.

        Uses ``∫₀ʷ t·dF = w·F(w) − G(w)`` per creation time, averaged over
        the horizon, normalized by the averaged delivery probability.
        Returns NaN when (numerically) nothing is delivered.
        """
        w = self._clamped_window(horizon, ttl)
        # H(w) = ∫₀ʷ (u·F(u) − G(u)) du, computed on the grid up to w.
        mask = self.times <= w
        grid_t = self.times[mask]
        grid_num = grid_t * self.cdf[mask] - self._int_cdf[mask]
        # Trapezoid over the masked prefix plus the fractional last cell.
        inner = float(np.trapezoid(grid_num, dx=self._dt))
        last_t = float(grid_t[-1]) if grid_t.size else 0.0
        if w > last_t:
            num_w = w * self.ratio_at(w) - self.int_cdf(w)
            num_last = float(grid_num[-1]) if grid_num.size else 0.0
            inner += 0.5 * (num_w + num_last) * (w - last_t)
        num_at_w = w * self.ratio_at(w) - self.int_cdf(w)
        numerator = (inner + (horizon - w) * num_at_w) / horizon
        ratio = self.horizon_delivery_ratio(horizon, ttl)
        if ratio <= 0.0 or numerator <= 0.0:
            return float("nan")
        return numerator / ratio

    def mean_hops(self, window: float) -> float:
        """1 + E[depth of the delivering copy | delivered within *window*].

        NaN when nothing is delivered within the window.
        """
        w = min(window, self.window)
        flux = float(np.interp(w, self.times, self.cdf))
        if flux <= 0.0:
            return float("nan")
        depth = float(np.interp(w, self.times, self._int_depth_flux))
        return 1.0 + depth / flux
