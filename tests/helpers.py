"""Test scaffolding: hand-built micro-worlds with exact topologies.

``build_micro_world`` wires the full stack (simulator, world, transfer
manager, routers) around a :class:`~repro.mobility.stationary.Stationary` or
scripted :class:`~repro.mobility.trace.TraceMobility` layout so routing and
policy behaviour can be asserted deterministically.  :func:`best_of`
times the speed gates.
"""

from __future__ import annotations

import time
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from repro.engine.simulator import Simulator
from repro.mobility.base import MobilityModel
from repro.mobility.stationary import Stationary
from repro.mobility.trace import TraceMobility
from repro.net.message import Message
from repro.net.transfer import TransferManager
from repro.policies.base import BufferPolicy
from repro.policies.fifo import FifoPolicy
from repro.reports.contact_report import ContactReport
from repro.reports.metrics import MetricsCollector
from repro.routing.base import Router
from repro.routing.spray_and_wait import SprayAndWaitRouter
from repro.units import kbps, megabytes
from repro.world.node import Node
from repro.world.radio import Radio
from repro.world.world import World

DEFAULT_RANGE = 100.0
DEFAULT_BANDWIDTH = kbps(250)


def best_of(fn: Callable[[], object], repeats: int = 3) -> float:
    """Least wall time of *repeats* calls of *fn*: the noise-robust point
    estimate the speed gates compare."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


@dataclass
class MicroWorld:
    """The assembled stack of a hand-built test world."""

    sim: Simulator
    world: World
    nodes: list[Node]
    transfer_manager: TransferManager
    metrics: MetricsCollector
    contacts: ContactReport

    def node(self, i: int) -> Node:
        return self.nodes[i]

    def router(self, i: int) -> Router:
        router = self.nodes[i].router
        assert router is not None
        return router


def build_micro_world(
    points: list[tuple[float, float]] | None = None,
    mobility: MobilityModel | None = None,
    sim_time: float = 1000.0,
    buffer_bytes: int = megabytes(2.5),
    radio_range: float = DEFAULT_RANGE,
    bandwidth: float = DEFAULT_BANDWIDTH,
    policy_factory=FifoPolicy,
    router_factory=SprayAndWaitRouter,
    tick: float = 1.0,
    area: tuple[float, float] = (1000.0, 1000.0),
    seed: int = 0,
    deliverable_first: bool = False,
) -> MicroWorld:
    """Build a full stack around explicit positions or a custom mobility."""
    if (points is None) == (mobility is None):
        raise ValueError("pass exactly one of points / mobility")
    if mobility is None:
        assert points is not None
        mobility = Stationary(len(points), area, points=points)
    n = mobility.n_nodes

    sim = Simulator(end_time=sim_time)
    radio = Radio(range_m=radio_range, bandwidth_Bps=bandwidth)
    nodes = [Node(i, radio, buffer_capacity=buffer_bytes) for i in range(n)]
    tm = TransferManager(sim)
    world = World(sim, mobility, nodes, tm, tick=tick)
    for node in nodes:
        policy: BufferPolicy = policy_factory()
        router = router_factory(node, policy)
        router.deliverable_first = deliverable_first
        router.bind(sim, tm, n)
    metrics = MetricsCollector()
    metrics.subscribe(sim)
    contacts = ContactReport()
    contacts.subscribe(sim)
    world.start(np.random.default_rng(seed))
    return MicroWorld(sim, world, nodes, tm, metrics, contacts)


def scripted_mobility(
    times: list[float], frames: list[list[tuple[float, float]]]
) -> TraceMobility:
    """Mobility that jumps through explicit position frames at given times."""
    return TraceMobility(np.asarray(times, float), np.asarray(frames, float))


def make_message(
    msg_id: str = "M1",
    source: int = 0,
    destination: int = 1,
    size: int = megabytes(0.5),
    created_at: float = 0.0,
    ttl: float = 18000.0,
    copies: int | None = None,
    initial_copies: int = 16,
    hop_count: int = 0,
    spray_times: list[float] | None = None,
) -> Message:
    """A message with sensible paper-like defaults."""
    return Message(
        msg_id=msg_id,
        source=source,
        destination=destination,
        size=size,
        created_at=created_at,
        ttl=ttl,
        initial_copies=initial_copies,
        copies=initial_copies if copies is None else copies,
        hop_count=hop_count,
        spray_times=list(spray_times or []),
    )


def total_copies_in_network(mw: MicroWorld, msg_id: str) -> int:
    """Sum of spray tokens for *msg_id* across all buffers."""
    total = 0
    for node in mw.nodes:
        if msg_id in node.buffer:
            total += node.buffer.get(msg_id).copies
    return total
