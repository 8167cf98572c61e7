"""Differential byte-identity: sharded runs replay the single-process bytes.

The shard engine's contract: ``shard_count ∈ {1, 2, 4}`` must produce
identical event traces, metric time series and summaries (modulo
wall-clock fields) for the same seeded scenario.  Cells are shortened to 300 simulated seconds because every
sharded run pays ~2s of spawn-context worker startup; the barrier protocol
itself is exercised once per tick regardless of horizon.
"""

from __future__ import annotations

import json

import pytest

from repro.chaos.runner import stable_summary as stable_fields
from repro.experiments.runner import build_scenario, run_built
from repro.experiments.scenario import ROUTER_KINDS, ScenarioConfig
from repro.errors import ConfigurationError
from repro.policies.registry import available_policies
from repro.shard.world import ShardedWorld
from tests.obs.conftest import tiny_config
from tests.obs.test_determinism import assert_identical


def observed(**overrides) -> ScenarioConfig:
    return tiny_config(
        obs_interval=60.0, trace_capacity=500_000, sim_time=300.0, **overrides
    )


def stable_summary(summary) -> str:
    """The run summary minus wall-clock noise, as sorted JSON."""
    return json.dumps(stable_fields(summary), sort_keys=True)


def shard_run(config: ScenarioConfig, shard_count: int) -> tuple[str, str, str]:
    """(trace JSONL, time-series JSON, stable summary) for one shard count."""
    built = build_scenario(config.replace(shard_count=shard_count))
    summary = run_built(built)
    assert built.trace is not None and built.timeseries is not None
    if shard_count > 1:
        assert isinstance(built.world, ShardedWorld)
        stats = built.world.coordinator.stats
        # Anti-vacuity: the workers really ran the whole horizon — no cell
        # may silently pass by degrading to the inline fallback.
        assert stats["spawns"] == shard_count
        assert stats["folds"] == 0 and stats["quarantined"] == 0
        assert stats["digest_checks"] > 0
    return (
        built.trace.to_jsonl(),
        json.dumps(built.timeseries.as_dict(), sort_keys=True),
        stable_summary(summary),
    )


def assert_shards_agree(
    name: str, config: ScenarioConfig, counts: tuple[int, ...] = (2,)
) -> None:
    single = shard_run(config, 1)
    assert single[0], f"{name}: empty trace; the cell is vacuous"
    for count in counts:
        sharded = shard_run(config, count)
        assert_identical(
            f"{name}-shard{count}-trace-timeseries", [single[:2], sharded[:2]]
        )
        assert sharded[2] == single[2], f"{name}: summary differs at {count}"


class TestRouterAxis:
    @pytest.mark.parametrize("router", ROUTER_KINDS)
    def test_sharded_matches_single_process(self, router):
        assert_shards_agree(
            f"router-{router}", observed(router=router, policy="sdsrp")
        )


class TestPolicyAxis:
    @pytest.mark.parametrize("policy", available_policies())
    def test_sharded_matches_single_process(self, policy):
        assert_shards_agree(
            f"policy-{policy}", observed(router="snw", policy=policy)
        )


class TestMobilityAxis:
    @pytest.mark.parametrize(
        "mobility", ["rwp", "random-walk", "random-direction", "stationary"]
    )
    def test_sharded_matches_single_process(self, mobility):
        assert_shards_agree(
            f"mobility-{mobility}", observed(mobility=mobility, policy="gbsd")
        )


class TestShardCountAxis:
    def test_four_shards_match(self):
        """The acceptance triple {1, 2, 4} on the default cell."""
        assert_shards_agree("default", observed(), counts=(2, 4))

    def test_seeds_differ(self):
        """Anti-vacuity: different seeds produce different sharded traces."""
        a = shard_run(observed(seed=1), 2)
        b = shard_run(observed(seed=2), 2)
        assert a[0] != b[0]


class TestConfigValidation:
    def test_shard_count_requires_scalar_engine(self):
        with pytest.raises(ConfigurationError, match="scalar engine only"):
            tiny_config(shard_count=2, engine_backend="analytic")

    def test_shard_kill_requires_sharding(self):
        with pytest.raises(ConfigurationError):
            tiny_config(shard_kill=(0, 5))
        with pytest.raises(ConfigurationError):
            tiny_config(shard_count=2, shard_kill=(2, 5))
        with pytest.raises(ConfigurationError):
            tiny_config(shard_count=2, shard_kill=(0, 0))
