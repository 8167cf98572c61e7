"""Figure/table generators — one entry point per paper artifact.

Every generator supports two scales:

* ``full=True`` — the paper's exact parameter grids (Tables II/III): 18000 s,
  100/200 nodes, 13-point copies sweep, 7-point buffer sweep, 8-point rate
  sweep.  Hours of CPU serially; use ``workers`` to parallelize.
* ``full=False`` (default) — a density/congestion-preserving reduction (see
  :func:`repro.experiments.scenario.scale_scenario`) with a coarser grid.
  Minutes on a laptop, preserves the paper's orderings (EXPERIMENTS.md
  records the comparison).

Returned :class:`FigureData` holds one series per policy per metric and can
render itself as the text table the benchmarks print.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from typing import Any

from repro.analysis.fitting import ExponentialFit, fit_exponential
from repro.analysis.taylor import priority_curve
from repro.experiments.runner import run_scenario
from repro.experiments.scenario import (
    ScenarioConfig,
    epfl_scenario,
    random_waypoint_scenario,
    scale_scenario,
)
from repro.experiments.sweep import replicate, run_many, summarize_replicates
from repro.faults.plan import FaultPlan
from repro.reports.summary import FailedRun, RunSummary
from repro.units import megabytes

#: The four buffer-management strategies the paper compares (Sec. IV-A).
PAPER_POLICIES: tuple[str, ...] = ("fifo", "snw-o", "snw-c", "sdsrp")
#: The paper's three headline metrics (Sec. IV-A).
PAPER_METRICS: tuple[str, ...] = (
    "delivery_ratio",
    "average_hopcount",
    "overhead_ratio",
)

# -- the paper's parameter grids (Tables II/III) -----------------------------

FULL_COPIES = tuple(range(16, 65, 4))  # 16, 20, ..., 64
FULL_BUFFERS_MB = (2.0, 2.5, 3.0, 3.5, 4.0, 4.5, 5.0)
FULL_RATES = tuple((float(a), float(a + 5)) for a in range(10, 50, 5))
#: Churn axis (robustness extension, not in the paper): fraction of nodes
#: cycling offline/online on a 1/5-horizon duty cycle (1 h at paper scale).
FULL_CHURN = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5)

REDUCED_COPIES = (16, 32, 48, 64)
REDUCED_BUFFERS_MB = (2.0, 3.0, 4.0, 5.0)
REDUCED_RATES = ((10.0, 15.0), (20.0, 25.0), (30.0, 35.0), (45.0, 50.0))
REDUCED_CHURN = (0.0, 0.2, 0.4)

#: Reduction factors used when full=False.
REDUCED_NODE_FACTOR = 0.4
REDUCED_TIME_FACTOR = 1.0 / 3.0
#: Congestion calibration (see scale_scenario): chosen so the FIFO baseline
#: lands in the paper's observed delivery-ratio band (~0.3) at the reduced
#: scale, which is where the reported orderings live.
REDUCED_INTERVAL_FACTOR = 2.5


@dataclass
class FigureData:
    """Series data for one paper figure (a row of 3 subplots)."""

    figure: str
    x_label: str
    x_values: list[Any]
    #: policy -> metric -> list aligned with x_values.
    series: dict[str, dict[str, list[float]]]
    #: policy -> metric -> per-x lists of raw replicate summaries.
    raw: dict[str, list[list[RunSummary]]] = field(default_factory=dict)
    #: Runs that produced no summary (crash-safe sweeps; empty otherwise).
    failures: list[FailedRun] = field(default_factory=list)

    def metric_table(self, metric: str) -> str:
        """Text table: one row per policy, one column per x value."""
        header = f"{self.figure} — {metric} vs {self.x_label}"
        xcols = " ".join(f"{self._fmt_x(x):>11}" for x in self.x_values)
        lines = [header, f"{'policy':<10} {xcols}"]
        for policy, metrics in self.series.items():
            vals = " ".join(f"{v:>11.3f}" for v in metrics[metric])
            lines.append(f"{policy:<10} {vals}")
        return "\n".join(lines)

    @staticmethod
    def _fmt_x(x: Any) -> str:
        if isinstance(x, tuple):
            return f"[{x[0]:.0f},{x[1]:.0f}]"
        return str(x)


def reduced(
    base: ScenarioConfig,
    node_factor: float | None = None,
    time_factor: float | None = None,
) -> ScenarioConfig:
    """The calibrated reduced-scale variant of a paper scenario.

    Applies the module's reduction factors (density/congestion preserving,
    see :func:`~repro.experiments.scenario.scale_scenario`) so callers — the
    CLI's ``--reduced`` flag, benchmarks, docs examples — all land on the
    same operating point.
    """
    return scale_scenario(
        base,
        node_factor=REDUCED_NODE_FACTOR if node_factor is None else node_factor,
        time_factor=REDUCED_TIME_FACTOR if time_factor is None else time_factor,
        interval_factor=REDUCED_INTERVAL_FACTOR,
    )


def _sweep_figure(
    figure: str,
    base: ScenarioConfig,
    x_label: str,
    x_values: Sequence[Any],
    apply_x: Callable[[ScenarioConfig, Any], ScenarioConfig],
    policies: Sequence[str],
    replicates: int,
    workers: int | None,
    retries: int = 0,
    timeout: float | None = None,
    resume: str | None = None,
) -> FigureData:
    """Run the (policy × x × replicate) grid and aggregate.

    With ``retries``/``timeout``/``resume`` set, the sweep runs on the
    crash-safe path: failed grid points become :class:`FailedRun` entries in
    :attr:`FigureData.failures` instead of aborting the whole grid, and an
    interrupted sweep resumes from the ``resume`` checkpoint file.
    """
    configs: list[ScenarioConfig] = []
    index: list[tuple[str, int]] = []
    for policy in policies:
        for xi, x in enumerate(x_values):
            cfg = apply_x(base.replace(policy=policy), x)
            for rep_cfg in replicate(cfg, replicates):
                configs.append(rep_cfg)
                index.append((policy, xi))
    summaries = run_many(
        configs, workers=workers,
        retries=retries, timeout=timeout, checkpoint=resume,
    )

    failures: list[FailedRun] = []
    grid: dict[str, list[list[RunSummary]]] = {
        p: [[] for _ in x_values] for p in policies
    }
    for (policy, xi), summary in zip(index, summaries):
        if isinstance(summary, FailedRun):
            failures.append(summary)
        else:
            grid[policy][xi].append(summary)

    series = {
        policy: {
            metric: [
                summarize_replicates(grid[policy][xi], metric)
                for xi in range(len(x_values))
            ]
            for metric in PAPER_METRICS
        }
        for policy in policies
    }
    return FigureData(
        figure=figure,
        x_label=x_label,
        x_values=list(x_values),
        series=series,
        raw=grid,
        failures=failures,
    )


# -- Fig. 8 (random-waypoint) and Fig. 9 (EPFL substitute) --------------------


def _axis_plan(
    base: ScenarioConfig, axis: str, full: bool, node_factor: float
) -> tuple[str, Sequence[Any], Callable[[ScenarioConfig, Any], ScenarioConfig]]:
    """One sweep axis as ``(x_label, x_values, apply_x)``.

    Shared by the simulated sweeps and the ``fig-validate`` analytic
    overlay so both evaluate *exactly* the same grid points.
    """
    if axis == "copies":
        values: Sequence[Any] = FULL_COPIES if full else REDUCED_COPIES
        # x values stay in paper units; the applied L scales with the fleet
        # so L/N (spray saturation) matches the paper's operating points.
        return (
            "initial copies L", values,
            lambda c, x: c.replace(initial_copies=max(2, round(x * node_factor))),
        )
    if axis == "buffer":
        values = FULL_BUFFERS_MB if full else REDUCED_BUFFERS_MB
        return (
            "buffer size (MB)", values,
            lambda c, x: c.replace(buffer_bytes=megabytes(x)),
        )
    if axis == "rate":
        values = FULL_RATES if full else REDUCED_RATES
        # The reduction rescales interval_range to keep per-node load; apply
        # the same factor to each swept interval (both presets start at
        # [25, 35], so the factor is base.interval[0]/25).
        scale = base.interval_range[0] / 25.0
        return (
            "generation interval (s)", values,
            lambda c, x: c.replace(interval_range=(x[0] * scale, x[1] * scale)),
        )
    if axis == "churn":
        values = FULL_CHURN if full else REDUCED_CHURN
        # Robustness extension: x is the churned fleet fraction on a
        # 1/5-horizon duty cycle (1 h off / 1 h on at paper scale).
        duty = base.sim_time / 5.0
        return (
            "churned node fraction", values,
            lambda c, x: c.replace(
                faults=FaultPlan(
                    churn_fraction=x, churn_off_time=duty, churn_on_time=duty
                )
            ) if x else c,
        )
    raise ValueError(f"unknown axis {axis!r}")


def _metric_sweep(
    figure: str,
    base: ScenarioConfig,
    axis: str,
    full: bool,
    policies: Sequence[str],
    replicates: int,
    workers: int | None,
    seed: int,
    node_factor: float | None = None,
    time_factor: float | None = None,
    retries: int = 0,
    timeout: float | None = None,
    resume: str | None = None,
) -> FigureData:
    original_nodes = base.n_nodes
    base = base.replace(seed=seed)
    if not full:
        base = reduced(base, node_factor, time_factor)
    x_label, values, apply_x = _axis_plan(
        base, axis, full, base.n_nodes / original_nodes
    )
    return _sweep_figure(
        figure, base, x_label, values, apply_x, policies, replicates,
        workers, retries=retries, timeout=timeout, resume=resume,
    )


def fig8_copies(full: bool = False, policies: Sequence[str] = PAPER_POLICIES,
                replicates: int = 1, workers: int | None = None,
                seed: int = 1, node_factor: float | None = None,
                time_factor: float | None = None, **resilience: Any) -> FigureData:
    """Fig. 8(a-c): RWP metrics vs initial copies (buffer 2.5 MB, rate 25-35 s).

    All ``fig8_*``/``fig9_*`` generators accept the crash-safe sweep options
    ``retries=N``, ``timeout=SECONDS`` and ``resume=PATH`` (see
    :func:`repro.experiments.sweep.run_many`).
    """
    return _metric_sweep("fig8(a-c)", random_waypoint_scenario(), "copies",
                         full, policies, replicates, workers, seed,
                         node_factor, time_factor, **resilience)


def fig8_buffer(full: bool = False, policies: Sequence[str] = PAPER_POLICIES,
                replicates: int = 1, workers: int | None = None,
                seed: int = 1, node_factor: float | None = None,
                time_factor: float | None = None, **resilience: Any) -> FigureData:
    """Fig. 8(d-f): RWP metrics vs buffer size (L=32, rate 25-35 s)."""
    return _metric_sweep("fig8(d-f)", random_waypoint_scenario(), "buffer",
                         full, policies, replicates, workers, seed,
                         node_factor, time_factor, **resilience)


def fig8_rate(full: bool = False, policies: Sequence[str] = PAPER_POLICIES,
              replicates: int = 1, workers: int | None = None,
              seed: int = 1, node_factor: float | None = None,
              time_factor: float | None = None, **resilience: Any) -> FigureData:
    """Fig. 8(g-i): RWP metrics vs generation interval (L=32, 2.5 MB)."""
    return _metric_sweep("fig8(g-i)", random_waypoint_scenario(), "rate",
                         full, policies, replicates, workers, seed,
                         node_factor, time_factor, **resilience)


def fig8_churn(full: bool = False, policies: Sequence[str] = PAPER_POLICIES,
               replicates: int = 1, workers: int | None = None,
               seed: int = 1, node_factor: float | None = None,
               time_factor: float | None = None, **resilience: Any) -> FigureData:
    """Robustness extension: RWP metrics vs churned node fraction.

    Not a paper figure — it answers "how does SDSRP's priority ranking
    degrade under node churn?" by cycling a growing fraction of the fleet
    off/on (1/5-horizon duty cycle) under otherwise Table-II conditions.
    """
    return _metric_sweep("fig8(churn)", random_waypoint_scenario(), "churn",
                         full, policies, replicates, workers, seed,
                         node_factor, time_factor, **resilience)


def fig9_copies(full: bool = False, policies: Sequence[str] = PAPER_POLICIES,
                replicates: int = 1, workers: int | None = None,
                seed: int = 1, node_factor: float | None = None,
                time_factor: float | None = None, **resilience: Any) -> FigureData:
    """Fig. 9(a-c): taxi-trace metrics vs initial copies."""
    return _metric_sweep("fig9(a-c)", epfl_scenario(), "copies",
                         full, policies, replicates, workers, seed,
                         node_factor, time_factor, **resilience)


def fig9_buffer(full: bool = False, policies: Sequence[str] = PAPER_POLICIES,
                replicates: int = 1, workers: int | None = None,
                seed: int = 1, node_factor: float | None = None,
                time_factor: float | None = None, **resilience: Any) -> FigureData:
    """Fig. 9(d-f): taxi-trace metrics vs buffer size."""
    return _metric_sweep("fig9(d-f)", epfl_scenario(), "buffer",
                         full, policies, replicates, workers, seed,
                         node_factor, time_factor, **resilience)


def fig9_rate(full: bool = False, policies: Sequence[str] = PAPER_POLICIES,
              replicates: int = 1, workers: int | None = None,
              seed: int = 1, node_factor: float | None = None,
              time_factor: float | None = None, **resilience: Any) -> FigureData:
    """Fig. 9(g-i): taxi-trace metrics vs generation interval."""
    return _metric_sweep("fig9(g-i)", epfl_scenario(), "rate",
                         full, policies, replicates, workers, seed,
                         node_factor, time_factor, **resilience)


def fig9_churn(full: bool = False, policies: Sequence[str] = PAPER_POLICIES,
               replicates: int = 1, workers: int | None = None,
               seed: int = 1, node_factor: float | None = None,
               time_factor: float | None = None, **resilience: Any) -> FigureData:
    """Robustness extension: taxi-trace metrics vs churned node fraction."""
    return _metric_sweep("fig9(churn)", epfl_scenario(), "churn",
                         full, policies, replicates, workers, seed,
                         node_factor, time_factor, **resilience)


# -- fig-validate: analytic overlay on the simulated sweeps -------------------

#: Series key of the analytic overlay in fig-validate figures.
ANALYTIC_SERIES = "analytic"
#: Axes fig-validate supports — churn is excluded because the analytic
#: backend (by validation) cannot model fault injection.
VALIDATE_AXES = ("copies", "buffer", "rate")


def fig_validate(
    scenario: str = "rwp",
    axis: str = "copies",
    full: bool = False,
    policies: Sequence[str] = PAPER_POLICIES,
    replicates: int = 1,
    workers: int | None = None,
    seed: int = 1,
    node_factor: float | None = None,
    time_factor: float | None = None,
    **resilience: Any,
) -> FigureData:
    """A fig8/fig9 sweep with the mean-field prediction overlaid.

    Runs the usual simulated (policy × x) grid, then evaluates the *same*
    grid points through ``engine_backend="analytic"`` and attaches the
    result as one extra series keyed :data:`ANALYTIC_SERIES`.  The analytic
    model has no buffer-policy axis — its curve is the mean-field
    prediction the simulated policies should bracket, which is exactly the
    cross-check the preset exists to draw (docs/analytic.md).
    """
    if axis not in VALIDATE_AXES:
        raise ValueError(
            f"fig-validate supports axes {VALIDATE_AXES}, not {axis!r}"
        )
    base = random_waypoint_scenario() if scenario == "rwp" else epfl_scenario()
    figure = f"fig-validate({scenario}/{axis})"
    data = _metric_sweep(figure, base, axis, full, policies, replicates,
                         workers, seed, node_factor, time_factor, **resilience)

    overlay = base.replace(seed=seed)
    if not full:
        overlay = reduced(overlay, node_factor, time_factor)
    _, values, apply_x = _axis_plan(
        overlay, axis, full, overlay.n_nodes / base.n_nodes
    )
    overlay = overlay.replace(policy="fifo", engine_backend="analytic")
    series: dict[str, list[float]] = {m: [] for m in PAPER_METRICS}
    raw: list[list[RunSummary]] = []
    for x in values:
        summary = run_scenario(apply_x(overlay, x))
        for metric in PAPER_METRICS:
            series[metric].append(float(getattr(summary, metric)))
        raw.append([summary])
    data.series[ANALYTIC_SERIES] = series
    data.raw[ANALYTIC_SERIES] = raw
    return data


# -- Fig. 3: intermeeting distributions ---------------------------------------


def fig3_intermeeting(
    scenario: str = "rwp", full: bool = False, seed: int = 1
) -> tuple[ExponentialFit, Any]:
    """Fig. 3: intermeeting-time distribution and its exponential fit.

    Returns ``(fit, samples)`` for the requested scenario ("rwp" or "epfl").
    Traffic is disabled (generation pushed past the horizon) — contacts are
    a pure mobility property.
    """
    base = random_waypoint_scenario() if scenario == "rwp" else epfl_scenario()
    if not full:
        base = reduced(base)
    horizon = base.sim_time
    config = base.replace(
        seed=seed,
        interval_range=(horizon * 10, horizon * 10 + 1),
        policy="fifo",
    )
    from repro.experiments.runner import build_scenario

    built = build_scenario(config)
    built.sim.run()
    samples = built.contacts.intermeeting_samples()
    return fit_exponential(samples), samples


# -- Fig. 4: priority curves ----------------------------------------------------


def fig4_priority_curve(**kwargs: Any) -> dict[str, Any]:
    """Fig. 4: U_i vs P(R_i) — idealization and Taylor truncations."""
    return priority_curve(**kwargs)


__all__ = [
    "ANALYTIC_SERIES",
    "FULL_BUFFERS_MB",
    "FULL_CHURN",
    "FULL_COPIES",
    "FULL_RATES",
    "PAPER_METRICS",
    "PAPER_POLICIES",
    "REDUCED_BUFFERS_MB",
    "REDUCED_CHURN",
    "REDUCED_COPIES",
    "REDUCED_RATES",
    "VALIDATE_AXES",
    "FigureData",
    "fig3_intermeeting",
    "fig_validate",
    "fig4_priority_curve",
    "fig8_buffer",
    "fig8_churn",
    "fig8_copies",
    "fig8_rate",
    "fig9_buffer",
    "fig9_churn",
    "fig9_copies",
    "fig9_rate",
    "reduced",
    "run_scenario",
]
