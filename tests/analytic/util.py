"""Shared scenario factory for the analytic test battery.

The base config is the cross-validation workhorse: a Table-II-flavoured
RWP fleet small enough that the scalar simulator finishes in well under a
second, with traffic light enough that buffers only congest when a test
shrinks them on purpose.
"""

from __future__ import annotations

from repro.experiments.scenario import ScenarioConfig

MESSAGE_SIZE = 10_000


def analytic_config(
    *,
    n_nodes: int = 20,
    copies: int = 8,
    buffer_msgs: int = 40,
    router: str = "snw",
    seed: int = 1,
    sim_time: float = 6000.0,
    **overrides,
) -> ScenarioConfig:
    base = ScenarioConfig(
        name="analytic-test",
        n_nodes=n_nodes,
        sim_time=sim_time,
        mobility="rwp",
        area=(2000.0, 2000.0),
        speed_range=(2.0, 3.0),
        pause_range=(0.0, 10.0),
        radio_range=100.0,
        buffer_bytes=buffer_msgs * MESSAGE_SIZE,
        message_size=MESSAGE_SIZE,
        interval_range=(50.0, 70.0),
        ttl=3000.0,
        initial_copies=copies,
        router=router,
        policy="fifo",
        engine_backend="analytic",
        seed=seed,
    )
    return base.replace(**overrides) if overrides else base
