"""The routing phase visits only its due set, and the link hooks skip only
calls that change nothing: the simulator matches the code it replaced.

The reference is that code, patched in by :func:`as_reference`: the
routing phase as a purge loop and an idle-sender loop over every node, a
``link_down`` that always asks for aborts, a ``try_send`` that scans an
empty buffer too, and SDSRP merges from every peer store.  Each test runs
one script twice, once as the simulator is and once as the reference, and
requires the same purges and ``try_send`` calls, tick by tick and node by
node, and the same outcome, dropped-list records included.
"""

from __future__ import annotations

import contextlib
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

import repro.world.world as world_module
from repro.core.dropped_list import DroppedListStore
from repro.core.sdsrp import SdsrpPolicy, SdsrpShared
from repro.net.outcomes import DROP_OVERFLOW
from repro.obs.profiler import timed
from repro.policies.fifo import FifoPolicy
from repro.routing.base import Router
from repro.routing.epidemic import EpidemicRouter
from repro.routing.prophet import ProphetRouter
from repro.routing.spray_and_wait import SprayAndWaitRouter
from repro.units import megabytes
from tests.helpers import build_micro_world, make_message, scripted_mobility


def reference_routing_phase(sim, nodes, now):
    """The routing phase as two walks over every node (the reference)."""
    profiler = sim.profiler
    with timed(profiler, "routing"):
        for node in nodes:
            if node.buffer.next_expiry <= now and node.router is not None:
                node.router.purge_expired()
    with timed(profiler, "observers"):
        sim.listeners.emit("world.updated", now)
    with timed(profiler, "routing"):
        for node in nodes:
            router = node.router
            if node.sending or node.asleep or router is None:
                continue
            if node.neighbors:
                router.try_send()
            elif router.sleeps_when_idle:
                node.sleep()


def _reference(sim, due, now):
    reference_routing_phase(sim, due.nodes, now)


def reference_link_down(sim, transfer_manager, a, b, now):
    """``link_down`` that asks for aborts whether or not an end is sending."""
    a.neighbors.pop(b.id, None)
    b.neighbors.pop(a.id, None)
    transfer_manager.abort_for_link(a, b)
    sim.listeners.emit("link.down", a, b)
    if a.router is not None:
        a.router.on_link_down(b, now)
    if b.router is not None:
        b.router.on_link_down(a, now)


def reference_try_send(self):
    """``Router.try_send`` that scans an empty buffer too."""
    if self.transfer_manager is None:
        return
    if self.node.sending or not self.node.neighbors:
        return
    choice = self.select_next()
    if choice is None:
        if self.sleeps_when_idle:
            self.node.sleep()
        return
    peer, message, mode = choice
    self.transfer_manager.start(self.node, peer, message, mode)


REFERENCE_PATCHES = [
    (world_module, "routing_phase", _reference),
    (world_module, "link_down", reference_link_down),
    (Router, "try_send", reference_try_send),
    # Every peer store is merged from, drop record or not.
    (DroppedListStore, "holds_drops", property(lambda self: True)),
]


@contextlib.contextmanager
def as_reference(enabled):
    """Patch in the reference code while the block runs, if *enabled*."""
    with contextlib.ExitStack() as stack:
        if enabled:
            for target, name, value in REFERENCE_PATCHES:
                stack.enter_context(mock.patch.object(target, name, value))
        yield


def record_calls(sim, nodes):
    """Log ``(time, method, node id)`` for every purge and send attempt."""
    calls = []
    for node in nodes:
        router = node.router
        for name in ("purge_expired", "try_send"):
            method = getattr(router, name)

            def logged(*args, _method=method, _name=name, _id=node.id):
                calls.append((sim.now, _name, _id))
                return _method(*args)

            setattr(router, name, logged)
    return calls


def outcome(metrics, nodes):
    return (
        metrics.created, metrics.delivered, metrics.relayed,
        metrics.relayed_accepted, metrics.started, metrics.aborted,
        dict(metrics.drops_by_reason), metrics.hop_counts, metrics.latencies,
        [node.buffer.ids() for node in nodes],
        [node.asleep for node in nodes],
        [
            sorted(
                (origin, rec.record_time, sorted(rec.dropped))
                for origin, rec in node.router.policy.dropped.known_records().items()
            )
            for node in nodes
            if isinstance(node.router.policy, SdsrpPolicy)
        ],
    )


# -- micro-world scripts -------------------------------------------------------

N_NODES = 5
SIM_TIME = 60.0
#: Nodes on one anchor are linked; 60 m apart too (range 100 m).
ANCHORS = [(0.0, 0.0), (60.0, 0.0), (0.0, 60.0), (400.0, 400.0),
           (460.0, 400.0), (900.0, 0.0)]
#: A 0.5 MB copy takes 16.8 s on the air, so the two short TTLs expire in
#: flight: the purges skip the pinned copy until its transfer ends.
TTLS = [5.0, 12.0, 25.0, 40.0, 600.0]
STACKS = [
    (SprayAndWaitRouter, FifoPolicy),
    (SprayAndWaitRouter, SdsrpPolicy),
    (EpidemicRouter, FifoPolicy),
    (ProphetRouter, FifoPolicy),  # never sleeps: every node stays awake
]

_node = st.integers(0, N_NODES - 1)
_slot = st.integers(0, int(SIM_TIME) - 2)
_op = st.one_of(
    st.tuples(st.just("add"), _slot, _node, _node, st.sampled_from(TTLS)),
    st.tuples(st.just("drop"), _slot, _node),
    st.tuples(st.just("flap"), _slot, _node, _node),
    st.tuples(st.just("down"), _slot, _node),
    st.tuples(st.just("up"), _slot, _node),
)
_frames = st.lists(
    st.lists(st.integers(0, len(ANCHORS) - 1), min_size=N_NODES, max_size=N_NODES),
    min_size=7, max_size=7,
)


def apply(mw, op, serial):
    kind, node_id = op[0], op[2]
    node, now = mw.nodes[node_id], mw.sim.now
    if kind == "add":
        dest = op[3] if op[3] != node_id else (node_id + 1) % N_NODES
        node.router.create_message(make_message(
            msg_id=f"M{serial}", source=node_id, destination=dest,
            created_at=now, ttl=op[4], copies=8, initial_copies=8,
        ))
    elif kind == "drop":
        droppable = node.buffer.droppable()
        if droppable:
            node.router.drop_message(droppable[0], DROP_OVERFLOW)
    elif kind == "flap":
        mw.world.force_link_down(node_id, op[3])
    elif kind == "down":
        mw.world.set_node_down(node_id)
    else:
        mw.world.set_node_up(node_id)


def fleet_policies(policy_cls):
    """Per-node policy factory for one micro-world: an SDSRP fleet shares
    one state, as the scenario runner builds it."""
    if issubclass(policy_cls, SdsrpPolicy):
        shared = SdsrpShared.for_fleet(N_NODES)
        return lambda: policy_cls(shared)
    return policy_cls


def run_script(reference, stack, frames, ops):
    router_factory, policy_cls = stack
    mobility = scripted_mobility(
        [10.0 * k for k in range(len(frames))],
        [[ANCHORS[a] for a in frame] for frame in frames],
    )
    with as_reference(reference):
        mw = build_micro_world(
            mobility=mobility, sim_time=SIM_TIME, buffer_bytes=megabytes(1.0),
            policy_factory=fleet_policies(policy_cls),
            router_factory=router_factory,
        )
        calls = record_calls(mw.sim, mw.nodes)
        for serial, op in enumerate(ops):
            mw.sim.schedule_at(op[1] + 0.5, apply, mw, op, serial)
        mw.sim.run()
    return calls, outcome(mw.metrics, mw.nodes)


def assert_same_as_reference(stack, frames, ops):
    calls, result = run_script(False, stack, frames, ops)
    ref_calls, ref_result = run_script(True, stack, frames, ops)
    assert [c for c in calls if c[1] == "purge_expired"] == [
        c for c in ref_calls if c[1] == "purge_expired"
    ]
    assert calls == ref_calls
    assert result == ref_result
    return calls


@settings(max_examples=60)
@given(stack=st.sampled_from(STACKS), frames=_frames,
       ops=st.lists(_op, max_size=25))
def test_routing_phase_matches_the_walk_over_every_node(stack, frames, ops):
    assert_same_as_reference(stack, frames, ops)


def test_transfer_ending_pinned_and_expired():
    # Node 0 sends a 5 s copy to node 1 (16.8 s on the air).  From t=5 the
    # copy is expired but pinned: every tick purges node 0 again, skips the
    # copy and re-queues its bound, until the transfer ends expired.
    frames = [[0, 0, 5, 3, 3]] * 7
    ops = [("add", 0, 0, 2, 5.0)]
    calls = assert_same_as_reference(STACKS[0], frames, ops)
    purges = [t for t, name, node in calls if name == "purge_expired" and node == 0]
    assert purges == [float(t) for t in range(6, 19)]
