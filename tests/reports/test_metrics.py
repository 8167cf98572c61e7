"""Metrics collector: the paper's three metrics plus drop accounting."""

from __future__ import annotations

import math

from repro.reports.metrics import MetricsCollector
from tests.helpers import build_micro_world, make_message


def test_empty_run_defaults():
    m = MetricsCollector()
    assert m.delivery_ratio == 0.0
    assert math.isnan(m.average_hopcount)
    assert math.isnan(m.average_latency)
    assert math.isnan(m.overhead_ratio)
    assert m.drops_total == 0


def test_delivery_ratio_and_latency():
    mw = build_micro_world(points=[(0.0, 0.0), (50.0, 0.0)])
    mw.router(0).create_message(make_message(source=0, destination=1))
    mw.sim.run()
    m = mw.metrics
    assert m.created == 1
    assert m.delivered == 1
    assert m.delivery_ratio == 1.0
    assert m.average_hopcount == 1.0
    assert 15.0 < m.average_latency < 20.0
    # Delivery counts as a relay: overhead = (1 - 1)/1 = 0.
    assert m.overhead_ratio == 0.0


def test_overhead_counts_non_delivery_relays():
    # Chain 0-1-2: spray to middle + delivery = 2 relays, 1 delivered.
    mw = build_micro_world(points=[(0.0, 0.0), (80.0, 0.0), (160.0, 0.0)])
    mw.router(0).create_message(
        make_message(source=0, destination=2, copies=8, size=1000)
    )
    mw.sim.run(until=60.0)
    m = mw.metrics
    assert m.delivered == 1
    assert m.relayed >= 2
    assert m.overhead_ratio == (m.relayed - 1) / 1


def test_drop_reasons_tallied():
    mw = build_micro_world(points=[(0.0, 0.0), (900.0, 900.0)])
    mw.router(0).create_message(make_message(source=0, destination=1, ttl=5.0))
    mw.sim.run(until=20.0)
    assert mw.metrics.drops_by_reason == {"ttl": 1}
    assert mw.metrics.drops_total == 1


def test_started_and_aborted_counters():
    from tests.helpers import scripted_mobility

    mobility = scripted_mobility(
        [0.0, 5.0, 6.0, 50.0],
        [
            [(0.0, 0.0), (50.0, 0.0)],
            [(0.0, 0.0), (50.0, 0.0)],
            [(0.0, 0.0), (800.0, 800.0)],
            [(0.0, 0.0), (800.0, 800.0)],
        ],
    )
    mw = build_micro_world(mobility=mobility, sim_time=50.0)
    mw.router(0).create_message(make_message(source=0, destination=1))
    mw.sim.run()
    assert mw.metrics.started == 1
    assert mw.metrics.aborted == 1


def test_relayed_accepted_excludes_rejected_newcomers():
    """A newcomer destroyed by the receiving drop policy still counts as a
    relay (ONE semantics) but not as an accepted relay — and the sender's
    tokens are spent (the paper's Δn = −1 drop)."""
    from repro.net.message import Message
    from repro.policies.base import BufferPolicy
    from repro.units import megabytes

    class NewcomerLoses(BufferPolicy):
        name = "newcomer-loses"
        compare_newcomer = True

        def send_priority(self, message: Message, now: float) -> float:
            return 1.0

        def drop_priority(self, message: Message, now: float) -> float:
            # Relay copies (hop_count > 0) always rank below buffered ones.
            return -1.0 if message.hop_count > 0 else 1.0

    mw = build_micro_world(
        points=[(0.0, 0.0), (50.0, 0.0)],
        policy_factory=NewcomerLoses,
        buffer_bytes=megabytes(0.5),
    )
    mw.sim.run(until=1.0)
    # The receiver's single slot is already occupied (wait-phase copy, so
    # it generates no reverse traffic of its own).
    blocker = make_message(msg_id="blocker", source=1, destination=9,
                           copies=1, initial_copies=16)
    mw.nodes[1].buffer.add(blocker)
    spray = make_message(msg_id="spray", source=0, destination=9, copies=8)
    mw.nodes[0].buffer.add(spray)
    mw.router(0).try_send()
    mw.sim.run(until=30.0)
    m = mw.metrics
    assert m.relayed == 1
    assert m.relayed_accepted == 0
    assert m.drops_by_reason.get("overflow") == 1
    assert "spray" not in mw.nodes[1].buffer
    # Two-phase split committed: the rejected copy's tokens are destroyed.
    assert mw.nodes[0].buffer.get("spray").copies == 4

