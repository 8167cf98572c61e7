"""Sharded contact-plane throughput at fleet scale.

Runs a 10k-node fleet (paper-like density) end-to-end under shard_count 1,
2 and 4 and records ticks/sec for each — the tracked number for the
crash-tolerant sharded engine (docs/sharding.md).

The replicated-movement design buys byte-identity and crash recovery, not
raw speed: every barrier ships owned pairs plus a position digest over the
pipe, so at this density the sharded runs are *slower* than single-process.
The benchmark exists to keep that overhead visible and bounded, and to
catch regressions in the barrier loop itself.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import run_once
from repro.experiments.runner import build_scenario, run_built
from repro.experiments.scenario import ScenarioConfig


def fleet_config(shard_count: int) -> ScenarioConfig:
    return ScenarioConfig(
        name="shard-bench",
        n_nodes=10_000,
        sim_time=30.0,
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
        shard_count=shard_count,
        seed=7,
    )


@pytest.mark.benchmark(group="shard")
@pytest.mark.parametrize("shard_count", [1, 2, 4])
def test_fleet_ticks_per_sec(benchmark, record_figure, shard_count):
    """End-to-end ticks/sec of the 10k-node fleet per shard count
    (accumulates one key per count in bench_results.json)."""
    config = fleet_config(shard_count)

    def work():
        built = build_scenario(config)
        return run_built(built)

    summary = run_once(benchmark, work)
    assert summary.created > 0
    elapsed = summary.wall_seconds
    ticks_per_sec = (config.sim_time / config.tick) / elapsed
    record_figure(f"shard_ticks_per_sec_{shard_count}", {
        "scenario": config.name,
        "n_nodes": config.n_nodes,
        "shard_count": shard_count,
        "ticks_per_sec": ticks_per_sec,
    })
    print(f"\n{shard_count} shard(s): {ticks_per_sec:.1f} ticks/sec "
          f"({summary.created} messages)")
