"""Evaluate a scenario config against the analytic models.

:func:`run_analytic` is the package entry point: estimate the meeting rate,
build the router-appropriate delay model (with a damped buffer-blocking
fixed point for the spray routers, mirroring the epidemic model's ρ), and
wrap everything in an :class:`~repro.analytic.result.AnalyticResult`.
:func:`repro.experiments.runner.run_scenario` renders that result's
expectations as a plain :class:`~repro.reports.summary.RunSummary`.
"""

from __future__ import annotations

import time

from repro.analytic.epidemic import epidemic_delay_model
from repro.analytic.meeting import METHOD_AUTO, meeting_rate
from repro.analytic.model import DelayModel
from repro.analytic.result import AnalyticResult
from repro.analytic.snw import direct_delay_model, snw_delay_model
from repro.errors import ConfigurationError
from repro.experiments.scenario import ANALYTIC_ROUTERS, ScenarioConfig

__all__ = ["ANALYTIC_ROUTERS", "run_analytic"]

#: Damped fixed-point iterations for the spray-router blocking factor.
_RHO_ITERATIONS = 6
#: Same ρ ceiling as the epidemic model.
_RHO_MAX = 0.95


def _gen_rate(config: ScenarioConfig) -> float:
    lo, hi = config.interval_range
    return 2.0 / (lo + hi)


def _snw_model(
    config: ScenarioConfig, rate: float, window: float
) -> tuple[DelayModel, float]:
    """Spray delay model with buffer blocking resolved by fixed point.

    Identical structure to the epidemic model's ρ loop: per-node expected
    occupancy ``x = γ·∫₀ᵂ E[copies](a) da / N`` versus the per-node copy
    capacity; overflow thins the spread rates by (1 − ρ).
    """
    source = config.router == "snw-source"
    capacity = config.buffer_bytes / config.message_size
    gen = _gen_rate(config)
    rho = 0.0
    model = snw_delay_model(
        n_nodes=config.n_nodes,
        copies=config.initial_copies,
        rate=rate,
        window=window,
        source_spray=source,
    )
    for _ in range(_RHO_ITERATIONS):
        occupancy = gen * model.int_copies(window) / config.n_nodes
        target = (
            0.0
            if occupancy <= capacity
            else min(_RHO_MAX, 1.0 - capacity / occupancy)
        )
        new_rho = 0.5 * rho + 0.5 * target
        if abs(new_rho - rho) < 1e-9:
            rho = new_rho
            break
        rho = new_rho
        model = snw_delay_model(
            n_nodes=config.n_nodes,
            copies=config.initial_copies,
            rate=rate,
            window=window,
            source_spray=source,
            thin=1.0 - rho,
        )
    return model, rho


def run_analytic(
    config: ScenarioConfig, rate_method: str = METHOD_AUTO
) -> AnalyticResult:
    """Evaluate *config* analytically and return the full result object."""
    wall_start = time.perf_counter()
    if config.router not in ANALYTIC_ROUTERS:
        raise ConfigurationError(
            f"router {config.router!r} has no analytic model; "
            f"expected one of {ANALYTIC_ROUTERS}"
        )
    meeting = meeting_rate(config, method=rate_method)
    window = min(config.ttl, config.sim_time)
    blocking = 0.0
    model: DelayModel
    if config.router in ("snw", "snw-source"):
        model, blocking = _snw_model(config, meeting.rate, window)
    elif config.router == "epidemic":
        model, blocking = epidemic_delay_model(
            n_nodes=config.n_nodes,
            rate=meeting.rate,
            window=window,
            gen_rate=_gen_rate(config),
            buffer_capacity_msgs=config.buffer_bytes / config.message_size,
        )
    else:  # direct
        model = direct_delay_model(rate=meeting.rate, window=window)
    return AnalyticResult(
        config=config,
        meeting=meeting,
        model=model,
        blocking=blocking,
        wall_seconds=time.perf_counter() - wall_start,
    )
