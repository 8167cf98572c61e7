"""End-to-end simulator throughput benchmarks.

Measures whole-run wall time for a small Table-II-shaped scenario per
policy — the number that determines how long the full paper-scale sweeps
take (events/second is printed for context).
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import best_of, run_once
from repro.engine.events import EventQueue
from repro.experiments import random_waypoint_scenario, scale_scenario
from repro.experiments.figures import REDUCED_INTERVAL_FACTOR
from repro.experiments.runner import build_scenario


def small_config(policy: str):
    return scale_scenario(
        random_waypoint_scenario(policy=policy, seed=5),
        node_factor=0.25,
        time_factor=0.2,
        interval_factor=REDUCED_INTERVAL_FACTOR,
    )


@pytest.mark.benchmark(group="engine")
@pytest.mark.parametrize("policy", ["fifo", "sdsrp"])
def test_full_run_throughput(benchmark, policy):
    def work():
        built = build_scenario(small_config(policy))
        built.sim.run()
        return built

    built = run_once(benchmark, work)
    print(f"\n{policy}: {built.sim.events_processed} events, "
          f"{built.metrics.created} messages, "
          f"{built.contacts.contact_count} contacts")
    assert built.metrics.created > 0


@pytest.mark.benchmark(group="engine")
def test_ticks_per_sec(benchmark, record_figure):
    """End-to-end ticks/sec of the simulator — the tracked throughput
    metric."""
    config = small_config("sdsrp")

    def work():
        built = build_scenario(config)
        built.sim.run()
        return built

    built = run_once(benchmark, work)
    assert built.metrics.created > 0
    elapsed = best_of(work, repeats=2)
    ticks_per_sec = (config.sim_time / config.tick) / elapsed
    record_figure("engine_ticks_per_sec_scalar", {
        "scenario": config.name,
        "backend": "scalar",
        "ticks_per_sec": ticks_per_sec,
    })
    print(f"\n{ticks_per_sec:.0f} ticks/sec")


@pytest.mark.benchmark(group="engine")
def test_event_queue_throughput(benchmark):
    """Schedule + pop 10k events (the engine's raw overhead)."""

    def work():
        q = EventQueue()
        for i in range(10_000):
            q.schedule(float(i % 997), lambda: None)
        count = 0
        while q.pop() is not None:
            count += 1
        return count

    assert benchmark(work) == 10_000
