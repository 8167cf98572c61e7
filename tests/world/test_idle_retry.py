"""The world tick's idle-sender retry path.

New send eligibility can appear without any link event — e.g. a neighbor
drops its copy of a message we hold, making it sprayable to them again.
Only the periodic retry in World.update catches this.

The retry skips a node whose last full scan found nothing (it is asleep)
until one of three changes wakes it: its own buffer gains a message, a
neighbor's buffer loses one, or one of its links comes up.
"""

from __future__ import annotations

from repro.routing.prophet import ProphetRouter
from tests.helpers import build_micro_world, make_message


def test_idle_sender_retries_when_peer_drops_copy():
    mw = build_micro_world(
        points=[(0.0, 0.0), (80.0, 0.0), (900.0, 900.0)],
    )
    mw.sim.run(until=1.5)
    src, peer = mw.nodes[0], mw.nodes[1]

    # Peer already holds the message: source has nothing to send.
    msg = make_message(msg_id="m", source=0, destination=2, copies=8,
                       size=1000)
    src.router.create_message(msg)
    peer.buffer.add(
        make_message(msg_id="m", source=0, destination=2, copies=4,
                     initial_copies=16, size=1000, hop_count=1)
    )
    mw.sim.run(until=5.0)
    assert mw.metrics.relayed == 0
    assert not src.sending

    # The peer's copy vanishes (e.g. dropped by its policy): the next world
    # tick must notice and restart spraying without any link transition.
    peer.router.drop_message(peer.buffer.get("m"), "overflow")
    mw.sim.run(until=10.0)
    assert src.sending or mw.metrics.relayed >= 1
    mw.sim.run(until=30.0)
    assert "m" in peer.buffer  # re-infected


def test_sleep_and_wake_transitions():
    mw = build_micro_world(
        points=[(0.0, 0.0), (80.0, 0.0), (900.0, 900.0)],
    )
    mw.sim.run(until=1.5)
    src, peer, loner = mw.nodes
    # The link-up scans found nothing; the unlinked node never scanned.
    assert src.asleep and peer.asleep and not loner.asleep

    src.buffer.add(make_message(msg_id="m", source=0, destination=2, size=1000))
    assert not src.asleep and peer.asleep  # own buffer gained a message
    peer.buffer.add(make_message(msg_id="m", source=0, destination=2, size=1000))
    mw.sim.run(until=3.0)
    assert src.asleep  # the tick rescanned: the peer already holds "m"

    peer.router.drop_message(peer.buffer.get("m"), "overflow")
    assert not src.asleep  # a neighbor's buffer lost a copy


def test_routers_reading_the_clock_never_sleep():
    mw = build_micro_world(
        points=[(0.0, 0.0), (80.0, 0.0)], router_factory=ProphetRouter,
    )
    mw.sim.run(until=5.0)
    assert not any(node.asleep for node in mw.nodes)
