"""Regenerate every result EXPERIMENTS.md quotes into ``results/``.

One JSON file per result: the reduced Fig. 8 and Fig. 9 sweeps, the
full-scale Fig. 8(a-c) sweep, the churn table, Fig. 3's exponential fits,
Fig. 4's priority curve and the SDSRP ablations.  Each file holds the call
that produced it (``call``), every simulation seed it ran (``seeds``) and
the ``result``; nothing wall-clock.  Runs are deterministic and keys are
sorted, so a rerun rewrites the same bytes: CI reruns this script and
fails on any difference from the committed files, and
``tests/experiments/test_paper_claims.py`` asserts the paper's claims on
them.

Usage (no options; ``make results``)::

    PYTHONPATH=src python tools/results.py
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from repro.analysis.taylor import peak_location, priority_curve, taylor_convergence
from repro.experiments.figures import fig3_intermeeting, metric_sweep, reduced
from repro.experiments.scenario import random_waypoint_scenario
from repro.experiments.sweep import replicate, run_many, summarize_replicates
from repro.reports.summary import FailedRun, RunSummary
from repro.units import megabytes

RESULTS = Path(__file__).resolve().parent.parent / "results"

#: Reduced figure sweeps: seed 8, 2 replicates per grid point; Fig. 9's
#: taxi fleet is cut to 40 of the paper's 200 taxis.
FIGURE = {"seed": 8, "replicates": 2}
FIG9_NODE_FACTOR = 0.2
#: Ablations: reduced Table II, seed 8, 3 replicates per variant.
ABLATION_SEED = 8
ABLATION_REPLICATES = 3
ABLATION_METRICS = ("delivery_ratio", "overhead_ratio", "average_hopcount")

_MIXED = {"message_size_range": (megabytes(0.2), megabytes(0.8))}
_TAYLOR = {"priority_form": "taylor"}
#: Ablation -> row label -> (policy, ScenarioConfig overrides).
ABLATIONS: dict[str, dict[str, tuple[str, dict[str, Any]]]] = {
    "ablation_estimators": {
        "sdsrp (distributed)": ("sdsrp", {}),
        "sdsrp (oracle)": ("sdsrp-oracle", {}),
        "fifo (reference)": ("fifo", {}),
    },
    "ablation_spray_tree": {
        "ref = latest spray": ("sdsrp", {}),
        "ref = now": (
            "sdsrp", {"policy_kwargs": {"extrapolate_spray_tree": True}}
        ),
    },
    "ablation_reject_rule": {
        f"reject = {rule}": ("sdsrp", {"policy_kwargs": {"reject_rule": rule}})
        for rule in ("own", "any", "off")
    },
    "ablation_taylor": {
        "closed form (Eq.10)": ("sdsrp", {}),
        **{
            f"taylor k={k}": (
                "sdsrp", {"policy_kwargs": {**_TAYLOR, "taylor_terms": k}}
            )
            for k in (1, 2, 8)
        },
    },
    "ablation_scheduling": {
        "strict Algorithm 1": ("sdsrp", {}),
        "deliverable-first": ("sdsrp", {"deliverable_first": True}),
        "fifo deliverable-first": ("fifo", {"deliverable_first": True}),
    },
    "ablation_knapsack": {
        "sdsrp (mixed sizes)": ("sdsrp", _MIXED),
        "sdsrp-knapsack (mixed)": ("sdsrp-knapsack", _MIXED),
        "fifo (mixed sizes)": ("fifo", _MIXED),
    },
    "ablation_tick": {
        f"tick = {tick}s": ("sdsrp", {"tick": tick}) for tick in (0.5, 1.0, 2.0)
    },
}


def write(name: str, call: dict[str, Any], seeds: list[int],
          result: Any) -> None:
    text = json.dumps({"call": call, "seeds": seeds, "result": result},
                      indent=2, sort_keys=True)
    (RESULTS / f"{name}.json").write_text(text + "\n", encoding="utf-8")


def run_seeds(summaries: list[RunSummary]) -> list[int]:
    return sorted({s.seed for s in summaries})


def sweep(name: str, scenario: str, axis: str, **kwargs: Any) -> None:
    data = metric_sweep(scenario, axis, **kwargs)
    runs = [s for points in data.raw.values() for point in points
            for s in point]
    call = {"function": "repro.experiments.figures.metric_sweep",
            "args": {"scenario": scenario, "axis": axis, **kwargs}}
    write(name, call, run_seeds(runs), data.payload())


def fig3(scenario: str, seed: int) -> None:
    fit, _ = fig3_intermeeting(scenario=scenario, seed=seed)
    call = {"function": "repro.experiments.figures.fig3_intermeeting",
            "args": {"scenario": scenario, "seed": seed}}
    write(f"fig3_{scenario}", call, [seed], {
        "n_samples": fit.n_samples,
        "mean_intermeeting_s": fit.mean,
        "lambda_per_s": fit.rate,
        "ks_statistic": fit.ks_statistic,
        "ks_pvalue": fit.ks_pvalue,
    })


def fig4() -> None:
    counts = (1, 2, 4, 8, 16, 32)
    curves = priority_curve(taylor_term_counts=counts)
    write("fig4", {
        "function": "repro.analysis.taylor.priority_curve",
        "args": {"taylor_term_counts": list(counts)},
    }, [], {
        "peak": peak_location(curves["p_r"], curves["ideal"]),
        "taylor_errors": {
            f"taylor_k{k}": float(abs(curves[f"taylor_k{k}"]
                                      - curves["ideal"]).max())
            for k in counts
        },
    })
    write("fig4_convergence", {
        "function": "repro.analysis.taylor.taylor_convergence",
        "args": {"max_terms": 64},
    }, [], taylor_convergence(max_terms=64))


def ablations() -> None:
    """Every ablation variant's replicates in one sweep, split by row."""
    configs = [
        cfg
        for rows in ABLATIONS.values()
        for policy, overrides in rows.values()
        for cfg in replicate(
            reduced(random_waypoint_scenario(policy=policy, seed=ABLATION_SEED))
            .replace(**overrides),
            ABLATION_REPLICATES,
        )
    ]
    runs = iter(run_many(configs))  # in the order the configs were built
    for name, rows in ABLATIONS.items():
        table: dict[str, dict[str, float]] = {}
        summaries: list[RunSummary] = []
        failures: list[FailedRun] = []
        for label in rows:
            reps = [next(runs) for _ in range(ABLATION_REPLICATES)]
            table[label] = {m: summarize_replicates(reps, m)
                            for m in ABLATION_METRICS}
            summaries += [r for r in reps if isinstance(r, RunSummary)]
            failures += [r for r in reps if isinstance(r, FailedRun)]
        call = {
            "function": "repro.experiments.sweep.run_many",
            "args": {
                "configs": "replicate(reduced(random_waypoint_scenario("
                           "policy=policy, seed=seed)).replace(**overrides), "
                           "replicates)",
                "seed": ABLATION_SEED,
                "replicates": ABLATION_REPLICATES,
                "variants": {label: {"policy": policy, "overrides": overrides}
                             for label, (policy, overrides) in rows.items()},
            },
            "aggregate": "repro.experiments.sweep.summarize_replicates",
        }
        write(name, call, run_seeds(summaries), {
            "rows": table, "failures": [f.as_dict() for f in failures],
        })


def main() -> None:
    RESULTS.mkdir(exist_ok=True)
    fig3("rwp", seed=4)
    fig3("epfl", seed=4)
    fig4()
    for axis in ("copies", "buffer", "rate"):
        sweep(f"fig8_{axis}", "rwp", axis, **FIGURE)
        sweep(f"fig9_{axis}", "epfl", axis, node_factor=FIG9_NODE_FACTOR,
              **FIGURE)
    sweep("fig8_churn", "rwp", "churn", seed=1)
    ablations()
    sweep("fig8_copies_full", "rwp", "copies", full=True, seed=1)


if __name__ == "__main__":  # sweep workers are spawned and re-import this
    main()
