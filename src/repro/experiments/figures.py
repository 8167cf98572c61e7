"""Figure generators for the paper's evaluation.

:func:`metric_sweep` draws every panel of Figs. 8 and 9: one
:data:`SCENARIOS` name (``"rwp"`` for Fig. 8, ``"epfl"`` for Fig. 9) by one
:data:`AXES` name.  :func:`fig_validate` overlays the analytic model on
such a sweep, and :func:`fig3_intermeeting` fits Fig. 3's intermeeting
distribution.  Fig. 4's curves are
:func:`repro.analysis.taylor.priority_curve`.

Every generator supports two scales:

* ``full=True`` — the paper's exact parameter grids (Tables II/III): 18000 s,
  100/200 nodes, 13-point copies sweep, 7-point buffer sweep, 8-point rate
  sweep.  Hours of CPU serially; use ``workers`` to parallelize.
* ``full=False`` (default) — a density/congestion-preserving reduction (see
  :func:`repro.experiments.scenario.scale_scenario`) with a coarser grid.
  Minutes on a laptop, preserves the paper's orderings (EXPERIMENTS.md
  records the comparison).

Returned :class:`FigureData` holds one series per policy per metric; it
renders the text tables the CLI and the benchmarks print and the JSON
payload they write.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from typing import Any

from repro.analysis.fitting import ExponentialFit, fit_exponential
from repro.experiments.runner import build_scenario, run_scenario
from repro.experiments.scenario import (
    ScenarioConfig,
    epfl_scenario,
    random_waypoint_scenario,
    scale_scenario,
)
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
    #: policy -> per-x lists of replicate summaries (one list per x value,
    #: one summary per successful replicate).
    raw: dict[str, list[list[RunSummary]]] = field(default_factory=dict)
    #: Runs that produced no summary (empty when every run completed).
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

    def payload(self) -> dict[str, Any]:
        """The figure as JSON-ready data: what ``--json`` writes, the
        benchmarks record and the golden tests pin."""
        return {
            "figure": self.figure,
            "x_label": self.x_label,
            "x_values": [list(x) if isinstance(x, tuple) else x
                         for x in self.x_values],
            "series": self.series,
            "failures": [f.as_dict() for f in self.failures],
        }

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


# -- Fig. 8 (random-waypoint) and Fig. 9 (EPFL substitute) --------------------

#: The paper's two evaluation scenarios: name -> (figure, preset).  "rwp" is
#: Table II's random waypoint (Fig. 8), "epfl" Table III's taxi fleet (Fig. 9).
SCENARIOS: dict[str, tuple[str, Callable[[], ScenarioConfig]]] = {
    "rwp": ("fig8", random_waypoint_scenario),
    "epfl": ("fig9", epfl_scenario),
}
#: Sweep axis -> the panels of Figs. 8 and 9 it draws.  Churn is a
#: robustness extension, not a paper panel.
AXES: dict[str, str] = {
    "copies": "a-c",
    "buffer": "d-f",
    "rate": "g-i",
    "churn": "churn",
}


def preset(scenario: str) -> ScenarioConfig:
    """The paper preset of a :data:`SCENARIOS` name."""
    if scenario not in SCENARIOS:
        raise ValueError(f"unknown scenario {scenario!r}")
    return SCENARIOS[scenario][1]()


def _axis_plan(
    scenario: str,
    axis: str,
    full: bool,
    seed: int,
    node_factor: float | None,
    time_factor: float | None,
) -> tuple[
    ScenarioConfig, str, Sequence[Any],
    Callable[[ScenarioConfig, Any], ScenarioConfig],
]:
    """One sweep's grid as ``(base, x_label, x_values, apply_x)``.

    Shared by :func:`metric_sweep` and the ``fig-validate`` analytic
    overlay so both evaluate *exactly* the same grid points.
    """
    paper = preset(scenario)
    base = paper.replace(seed=seed)
    if not full:
        base = reduced(base, node_factor, time_factor)
    fleet_factor = base.n_nodes / paper.n_nodes
    if axis == "copies":
        values: Sequence[Any] = FULL_COPIES if full else REDUCED_COPIES
        # x values stay in paper units; the applied L scales with the fleet
        # so L/N (spray saturation) matches the paper's operating points.
        return (
            base, "initial copies L", values,
            lambda c, x: c.replace(initial_copies=max(2, round(x * fleet_factor))),
        )
    if axis == "buffer":
        values = FULL_BUFFERS_MB if full else REDUCED_BUFFERS_MB
        return (
            base, "buffer size (MB)", values,
            lambda c, x: c.replace(buffer_bytes=megabytes(x)),
        )
    if axis == "rate":
        values = FULL_RATES if full else REDUCED_RATES
        # The reduction rescales interval_range to keep per-node load; apply
        # the same factor to each swept interval (both presets start at
        # [25, 35], so the factor is base.interval[0]/25).
        scale = base.interval_range[0] / 25.0
        return (
            base, "generation interval (s)", values,
            lambda c, x: c.replace(interval_range=(x[0] * scale, x[1] * scale)),
        )
    if axis == "churn":
        values = FULL_CHURN if full else REDUCED_CHURN
        # Robustness extension: x is the churned fleet fraction on a
        # 1/5-horizon duty cycle (1 h off / 1 h on at paper scale).
        duty = base.sim_time / 5.0
        return (
            base, "churned node fraction", values,
            lambda c, x: c.replace(
                faults=FaultPlan(
                    churn_fraction=x, churn_off_time=duty, churn_on_time=duty
                )
            ) if x else c,
        )
    raise ValueError(f"unknown axis {axis!r}")


def metric_sweep(
    scenario: str,
    axis: str,
    *,
    full: bool = False,
    policies: Sequence[str] = PAPER_POLICIES,
    replicates: int = 1,
    workers: int | None = None,
    seed: int = 1,
    node_factor: float | None = None,
    time_factor: float | None = None,
    retries: int = 0,
    timeout: float | None = None,
    resume: str | None = None,
) -> FigureData:
    """Figs. 8 and 9: the paper's metrics over one axis of one scenario.

    ``scenario`` is a :data:`SCENARIOS` name and ``axis`` an :data:`AXES`
    name: ``metric_sweep("rwp", "copies")`` is Fig. 8(a-c), RWP metrics vs
    initial copies at buffer 2.5 MB and rate 25-35 s, and
    ``metric_sweep("epfl", "buffer")`` is Fig. 9(d-f).  The ``churn`` axis
    is a robustness extension: it cycles a growing fraction of the fleet
    off/on (1/5-horizon duty cycle) under otherwise paper conditions.

    Runs the (policy × x × replicate) grid and aggregates it (see
    :func:`repro.experiments.sweep.run_many`): failed grid points become
    :class:`FailedRun` entries in :attr:`FigureData.failures` instead of
    aborting the whole grid, ``retries`` reruns them with their own
    configs, ``timeout`` bounds each run, and ``resume`` names a run-store
    directory that keeps every finished run, so an interrupted sweep
    resumes from the runs it completed.
    """
    # The sweep stack (worker lanes, the run store, multiprocessing) loads
    # only when a sweep runs, not with the CLI parser or a single run.
    from repro.experiments.sweep import (
        replicate,
        run_many,
        summarize_replicates,
    )

    base, x_label, x_values, apply_x = _axis_plan(
        scenario, axis, full, seed, node_factor, time_factor
    )
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
        figure=f"{SCENARIOS[scenario][0]}({AXES[axis]})",
        x_label=x_label,
        x_values=list(x_values),
        series=series,
        raw=grid,
        failures=failures,
    )


# -- fig-validate: analytic overlay on the simulated sweeps -------------------

#: Series key of the analytic overlay in fig-validate figures.
ANALYTIC_SERIES = "analytic"
#: Axes fig-validate supports — churn is excluded because the analytic
#: backend (by validation) cannot model fault injection.
VALIDATE_AXES = ("copies", "buffer", "rate")


def fig_validate(
    scenario: str = "rwp",
    axis: str = "copies",
    *,
    full: bool = False,
    seed: int = 1,
    node_factor: float | None = None,
    time_factor: float | None = None,
    **sweep: Any,
) -> FigureData:
    """A :func:`metric_sweep` with the mean-field prediction overlaid.

    Runs the usual simulated (policy × x) grid, then evaluates the *same*
    grid points through ``engine_backend="analytic"`` and attaches the
    result as one extra series keyed :data:`ANALYTIC_SERIES`.  The analytic
    model has no buffer-policy axis — its curve is the mean-field
    prediction the simulated policies should bracket, which is exactly the
    cross-check the preset exists to draw (docs/analytic.md).  ``sweep``
    takes :func:`metric_sweep`'s other keywords.
    """
    if axis not in VALIDATE_AXES:
        raise ValueError(
            f"fig-validate supports axes {VALIDATE_AXES}, not {axis!r}"
        )
    data = metric_sweep(scenario, axis, full=full, seed=seed,
                        node_factor=node_factor, time_factor=time_factor,
                        **sweep)
    data.figure = f"fig-validate({scenario}/{axis})"

    base, _, x_values, apply_x = _axis_plan(
        scenario, axis, full, seed, node_factor, time_factor
    )
    overlay = base.replace(policy="fifo", engine_backend="analytic")
    series: dict[str, list[float]] = {m: [] for m in PAPER_METRICS}
    raw: list[list[RunSummary]] = []
    for x in x_values:
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

    Returns ``(fit, samples)`` for the requested :data:`SCENARIOS` name.
    Traffic is disabled (generation pushed past the horizon) — contacts are
    a pure mobility property.
    """
    base = preset(scenario)
    if not full:
        base = reduced(base)
    horizon = base.sim_time
    config = base.replace(
        seed=seed,
        interval_range=(horizon * 10, horizon * 10 + 1),
        policy="fifo",
    )
    built = build_scenario(config)
    built.sim.run()
    samples = built.contacts.intermeeting_samples()
    return fit_exponential(samples), samples


__all__ = [
    "ANALYTIC_SERIES",
    "AXES",
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
    "SCENARIOS",
    "VALIDATE_AXES",
    "FigureData",
    "fig3_intermeeting",
    "fig_validate",
    "metric_sweep",
    "preset",
    "reduced",
    "run_scenario",
]
