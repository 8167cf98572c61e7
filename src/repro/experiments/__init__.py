"""Experiment harness: scenario presets, runner, sweeps, figure generators.

Quick use::

    from repro.experiments import random_waypoint_scenario, run_scenario

    summary = run_scenario(random_waypoint_scenario(policy="sdsrp"))
    print(summary.table_row())

Figure reproduction lives in :mod:`repro.experiments.figures`:
``metric_sweep("rwp", "copies")`` is Fig. 8(a-c), ``metric_sweep("epfl",
"buffer")`` Fig. 9(d-f), with paper-scale parameter grids behind
``full=True`` and reduced-scale defaults that preserve the orderings (see
DESIGN.md §4).
"""

from repro.experiments.runner import (
    build_scenario,
    run_scenario,
    run_scenario_safe,
)
from repro.experiments.scenario import (
    ScenarioConfig,
    epfl_scenario,
    random_waypoint_scenario,
    scale_scenario,
)

__all__ = [
    "ScenarioConfig",
    "build_scenario",
    "epfl_scenario",
    "random_waypoint_scenario",
    "run_scenario",
    "run_scenario_safe",
    "scale_scenario",
]
