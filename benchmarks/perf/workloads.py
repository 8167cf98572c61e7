"""The perf benchmark's workloads.

Each workload is a scenario family.  One *instance* is that scenario built
with one scenario seed; a benchmark run executes a batch of instances whose
seeds come from the run's ``--seed`` (:func:`instance_seed`), so the same
seed always yields the same inputs.

Instances are shorter than the paper's full horizons on purpose: the
per-seed cost of a scenario varies (the taxi hotspot layout alone moves a
run's wall time by up to 25 %), so a run measures a batch of instances
instead of timing one long simulation.  Every instance
uses default engine settings (no backend, shard or detector override): the
benchmark measures what a user gets by default.

The config builders import :mod:`repro` lazily: the benchmark's parent
process never imports the simulator, only its child processes do.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.scenario import ScenarioConfig


def instance_seed(seed: int, index: int) -> int:
    """Scenario seed of the *index*-th instance of a run with *seed*."""
    return seed * 1000 + index


def _paper_rwp_100(seed: int) -> "ScenarioConfig":
    # Table II (100 nodes, L=32, SDSRP) over its first 3000 s.
    from repro.experiments.scenario import random_waypoint_scenario

    return random_waypoint_scenario(policy="sdsrp", sim_time=3000.0, seed=seed)


def _taxi_200(seed: int) -> "ScenarioConfig":
    # Table III's 200-taxi fleet at the reduced operating point, first 500 s:
    # the hotspot layout drawn from the seed sets an instance's cost, so a
    # run measures many short instances.
    from repro.experiments.figures import reduced
    from repro.experiments.scenario import epfl_scenario

    base = reduced(epfl_scenario(policy="sdsrp"), node_factor=1.0)
    return base.replace(sim_time=500.0, seed=seed)


def _fleet_10k(seed: int) -> "ScenarioConfig":
    # 10,000 random-waypoint nodes on 12 km x 12 km with almost no traffic.
    from repro.experiments.scenario import ScenarioConfig

    return ScenarioConfig(
        name="fleet-10k",
        n_nodes=10_000,
        sim_time=40.0,
        mobility="rwp",
        area=(12_000.0, 12_000.0),
        speed_range=(1.0, 3.0),
        radio_range=100.0,
        buffer_bytes=10_000,
        message_size=1000,
        interval_range=(20.0, 40.0),
        ttl=600.0,
        initial_copies=8,
        router="snw",
        policy="sdsrp",
        seed=seed,
    )


def _congested_fifo_100(seed: int) -> "ScenarioConfig":
    # Table II under plain Spray-and-Wait at fig8's hottest rate, first 4000 s.
    from repro.experiments.scenario import random_waypoint_scenario

    return random_waypoint_scenario(
        policy="fifo", interval_range=(10.0, 15.0), sim_time=4000.0, seed=seed
    )


def _selftest(seed: int) -> "ScenarioConfig":
    # Tiny scenario for the harness self-test: contacts, relays and drops
    # in well under a second of simulation.
    from repro.experiments.scenario import ScenarioConfig
    from repro.units import megabytes

    return ScenarioConfig(
        name="perf-selftest",
        n_nodes=12,
        sim_time=200.0,
        area=(500.0, 500.0),
        speed_range=(5.0, 10.0),
        buffer_bytes=megabytes(1.0),
        interval_range=(4.0, 8.0),
        ttl=150.0,
        initial_copies=4,
        policy="sdsrp",
        seed=seed,
    )


#: The benchmark's workloads, in the order BENCHMARK.json lists them: each
#: builds the scenario of one instance from its scenario seed.
WORKLOADS: dict[str, Callable[[int], "ScenarioConfig"]] = {
    "paper-rwp-100": _paper_rwp_100,
    "taxi-200": _taxi_200,
    "fleet-10k": _fleet_10k,
    "congested-fifo-100": _congested_fifo_100,
}

#: Test-only workload for ``test_perf_harness.py``; not part of the benchmark.
SELFTEST = "selftest-12"


def scenario(workload: str, seed: int) -> "ScenarioConfig":
    """The scenario of *workload* (or the self-test one) for *seed*."""
    return (_selftest if workload == SELFTEST else WORKLOADS[workload])(seed)
