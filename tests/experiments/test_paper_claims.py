"""The paper's claims, asserted on the committed results.

``make results`` (``tools/results.py``) writes every number EXPERIMENTS.md
quotes into ``results/``, and CI reruns it and fails if any file changes.
These tests read those files and assert each claim EXPERIMENTS.md marks
"(asserted)": the Fig. 8 and Fig. 9 orderings and trend directions,
Fig. 3's exponential fit, Fig. 4's peak and Taylor convergence, and the
ablation inequalities.  Orderings compare a policy's mean over the sweep's
x values.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.core.priority import PEAK_P_R
from repro.rng import derive_seed

RESULTS = Path(__file__).resolve().parents[2] / "results"

FIG8 = ("fig8_copies", "fig8_buffer", "fig8_rate")
FIG9 = ("fig9_copies", "fig9_buffer", "fig9_rate")
SWEEPS = FIG8 + FIG9 + ("fig8_churn", "fig8_copies_full")
ABLATIONS = (
    "ablation_estimators", "ablation_spray_tree", "ablation_reject_rule",
    "ablation_taylor", "ablation_scheduling", "ablation_knapsack",
    "ablation_tick",
)
ALL = SWEEPS + ABLATIONS + ("fig3_rwp", "fig3_epfl", "fig4", "fig4_convergence")

#: Largest KS distance from the fitted exponential that still counts as
#: "approximately exponential" (Fig. 3).
KS_BOUND = 0.25


def load(name: str) -> dict:
    return json.loads((RESULTS / f"{name}.json").read_text(encoding="utf-8"))


def result(name: str) -> dict:
    return load(name)["result"]


def means(name: str, metric: str) -> dict[str, float]:
    """Each policy's *metric* averaged over the sweep's x values."""
    series = result(name)["series"]
    return {p: float(np.nanmean(series[p][metric])) for p in series}


def rows(name: str) -> dict[str, dict[str, float]]:
    return result(name)["rows"]


def test_results_holds_one_file_per_result():
    assert sorted(p.stem for p in RESULTS.glob("*.json")) == sorted(ALL)


@pytest.mark.parametrize("name", ALL)
def test_each_file_records_its_call_and_seeds(name):
    doc = load(name)
    call, seeds = doc["call"], doc["seeds"]
    assert call["function"].startswith("repro.")
    args = call["args"]
    if name in SWEEPS or name in ABLATIONS:
        # Replicate i of every grid point runs at the i-th derived seed.
        assert seeds == sorted(
            derive_seed(args["seed"], "replicate", i)
            for i in range(args.get("replicates", 1))
        )
        assert doc["result"]["failures"] == []
    elif "seed" in args:
        assert seeds == [args["seed"]]
    else:  # Fig. 4 is analytic
        assert seeds == []


# -- Fig. 8 and Fig. 9 ---------------------------------------------------------


@pytest.mark.parametrize("name", FIG8 + FIG9)
def test_sdsrp_has_the_lowest_overhead(name):
    overheads = means(name, "overhead_ratio")
    assert min(overheads, key=overheads.get) == "sdsrp", overheads


@pytest.mark.parametrize("name", FIG8 + FIG9)
def test_sdsrp_delivery_is_in_the_top_two(name):
    deliveries = means(name, "delivery_ratio")
    top2 = sorted(deliveries, key=deliveries.get, reverse=True)[:2]
    assert "sdsrp" in top2, deliveries


@pytest.mark.parametrize("name", FIG8)
def test_snw_c_has_the_lowest_and_fifo_the_highest_hopcounts(name):
    hops = means(name, "average_hopcount")
    assert min(hops, key=hops.get) == "snw-c", hops
    assert max(hops, key=hops.get) == "fifo", hops


def test_snw_o_delivery_declines_as_copies_grow():
    snwo = result("fig8_copies")["series"]["snw-o"]["delivery_ratio"]
    assert snwo[-1] < snwo[0], snwo


def test_fifo_hopcount_rises_with_copies():
    hops = result("fig8_copies")["series"]["fifo"]["average_hopcount"]
    assert hops[-1] > hops[0], hops


@pytest.mark.parametrize("name", ["fig8_buffer", "fig8_rate", "fig9_buffer"])
def test_delivery_rises_along_the_axis(name):
    for policy, metrics in result(name)["series"].items():
        series = metrics["delivery_ratio"]
        assert series[-1] > series[0], (policy, series)


def test_snw_c_overhead_falls_with_the_interval_on_taxis():
    # Sec. IV-B-2: with aggregation, less traffic cuts SnW-C's useless
    # forwardings under taxi mobility.
    snwc = result("fig9_rate")["series"]["snw-c"]["overhead_ratio"]
    assert snwc[-1] < snwc[0], snwc


# -- Fig. 3 and Fig. 4 ---------------------------------------------------------


@pytest.mark.parametrize("scenario", ["rwp", "epfl"])
def test_intermeeting_times_are_approximately_exponential(scenario):
    fit = result(f"fig3_{scenario}")
    assert fit["n_samples"] > 50
    assert fit["ks_statistic"] < KS_BOUND


def test_priority_curve_peaks_at_one_minus_one_over_e():
    assert result("fig4")["peak"] == pytest.approx(PEAK_P_R, abs=5e-3)


def test_taylor_truncations_converge_to_the_closed_form():
    errors = result("fig4")["taylor_errors"]
    ordered = [errors[f"taylor_k{k}"] for k in (1, 2, 4, 8, 16, 32)]
    assert all(b <= a + 1e-12 for a, b in zip(ordered, ordered[1:]))
    convergence = result("fig4_convergence")
    assert convergence["64"] < convergence["1"]


# -- ablations -----------------------------------------------------------------


def test_oracle_estimates_are_no_worse_and_beat_plain_snw():
    table = rows("ablation_estimators")
    oracle = table["sdsrp (oracle)"]
    assert oracle["overhead_ratio"] <= table["sdsrp (distributed)"]["overhead_ratio"]
    assert oracle["delivery_ratio"] > table["fifo (reference)"]["delivery_ratio"]


def test_latest_spray_reference_keeps_overhead_down():
    table = rows("ablation_spray_tree")
    assert (table["ref = latest spray"]["overhead_ratio"]
            <= table["ref = now"]["overhead_ratio"] * 1.25)


def test_rejection_overhead_stays_within_a_tenth_of_none():
    table = rows("ablation_reject_rule")
    assert (table["reject = own"]["overhead_ratio"]
            <= table["reject = off"]["overhead_ratio"] * 1.1)


def test_taylor_priorities_land_in_one_delivery_band():
    values = [row["delivery_ratio"] for row in rows("ablation_taylor").values()]
    assert max(values) - min(values) < 0.12


def test_mixed_size_deliveries_are_ratios():
    for row in rows("ablation_knapsack").values():
        assert 0.0 <= row["delivery_ratio"] <= 1.0


def test_results_are_robust_to_the_world_tick():
    values = [row["delivery_ratio"] for row in rows("ablation_tick").values()]
    assert max(values) - min(values) < 0.08
