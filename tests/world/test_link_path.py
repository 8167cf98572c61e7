"""The link path hands the tick's time down: the simulator matches the code
it replaced.

The reference is that code, patched in by :func:`as_reference`: the tick
and the fault paths decode changed link keys into per-pair ``divmod``
tuples, ``link_up``/``link_down`` take no time and call one-argument router
hooks, and every hook re-reads the time on each call (``Router.now``,
PRoPHET's aging, the Spray-and-Focus timers, SDSRP's estimator feeding
through its ``ctx``).  ``try_send`` tests an empty buffer with ``len()``.
Each test runs one script twice, once as the simulator is and once as the
reference, and requires the same link-hook calls, tick by tick and node by
node, the same ``EventTrace`` JSONL, the same ``RunSummary``, the same
PRoPHET and Spray-and-Focus tables, and for SDSRP the same dropped-list
records and intermeeting estimate.
"""

from __future__ import annotations

import contextlib
import math
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.world.world as world_module
from repro.core.sdsrp import SdsrpPolicy
from repro.experiments.runner import build_scenario, run_built
from repro.experiments.scenario import ScenarioConfig
from repro.obs.profiler import timed
from repro.routing.base import Router
from repro.routing.prophet import ProphetRouter
from repro.routing.spray_and_focus import SprayAndFocusRouter
from repro.world.contacts import diff_keys
from repro.world.world import World

# -- the reference: the link path before the time was handed down ------------


def reference_decode(keys, n):
    return [divmod(key, n) for key in keys.tolist()]


def reference_link_up(sim, a, b):
    a.neighbors[b.id] = b
    b.neighbors[a.id] = a
    a.wake()
    b.wake()
    sim.listeners.emit("link.up", a, b)
    if a.router is not None:
        a.router.on_link_up(b)
    if b.router is not None:
        b.router.on_link_up(a)


def reference_link_down(sim, transfer_manager, a, b):
    a.neighbors.pop(b.id, None)
    b.neighbors.pop(a.id, None)
    if a.sending or b.sending:
        transfer_manager.abort_for_link(a, b)
    sim.listeners.emit("link.down", a, b)
    if a.router is not None:
        a.router.on_link_down(b)
    if b.router is not None:
        b.router.on_link_down(a)


def reference_update(self):
    now = self.sim.now
    profiler = self.sim.profiler
    with timed(profiler, "movement"):
        self.positions = self.mobility.advance(now)
    with timed(profiler, "contacts"):
        keys = self.detect_links(self.detector)
    with timed(profiler, "links"):
        old = self.link_keys
        if not np.array_equal(keys, old):
            gone, came = diff_keys(old, keys)
            n = len(self.nodes)
            for i, j in reference_decode(gone, n):
                reference_link_down(
                    self.sim, self.transfer_manager, self.nodes[i], self.nodes[j]
                )
            for i, j in reference_decode(came, n):
                reference_link_up(self.sim, self.nodes[i], self.nodes[j])
        self.link_keys = keys
    world_module.routing_phase(self.sim, self.due, now)


def reference_set_node_down(self, node_id):
    if node_id in self.down_nodes:
        return
    self.down_nodes.add(node_id)
    touching = self._touches(self.link_keys, {node_id})
    gone = self.link_keys[touching]
    self.link_keys = self.link_keys[~touching]
    for i, j in reference_decode(gone, len(self.nodes)):
        reference_link_down(
            self.sim, self.transfer_manager, self.nodes[i], self.nodes[j]
        )


def reference_force_link_down(self, i, j):
    a, b = min(i, j), max(i, j)
    n = len(self.nodes)
    if not 0 <= a < b < n:
        return False
    key = a * n + b
    at = int(np.searchsorted(self.link_keys, key))
    if at == self.link_keys.size or self.link_keys[at] != key:
        return False
    self.link_keys = np.delete(self.link_keys, at)
    reference_link_down(self.sim, self.transfer_manager, self.nodes[a], self.nodes[b])
    return True


def reference_on_link_up(self, peer):
    self.policy.on_link_up(peer, self.now)
    self.try_send()


def reference_on_link_down(self, peer):
    self.policy.on_link_down(peer, self.now)


def reference_try_send(self):
    if self.transfer_manager is None:
        return
    if self.node.sending or not self.node.neighbors:
        return
    choice = self.select_next() if len(self.node.buffer) else None
    if choice is None:
        if self.sleeps_when_idle:
            self.node.sleep()
        return
    peer, message, mode = choice
    self.transfer_manager.start(self.node, peer, message, mode)


def reference_prophet_age(self):
    now = self.now
    elapsed = now - self._last_aged
    if elapsed <= 0:
        return
    factor = self.gamma ** (elapsed / self.aging_unit)
    for dest in list(self._preds):
        value = self._preds[dest] * factor
        if value < 1e-6:
            del self._preds[dest]
        else:
            self._preds[dest] = value
    self._last_aged = now


def reference_prophet_predictability(self, dest):
    self._age()
    return self._preds.get(dest, 0.0)


def reference_prophet_on_link_up(self, peer):
    self._age()
    old = self._preds.get(peer.id, 0.0)
    self._preds[peer.id] = old + (1.0 - old) * self.p_init
    peer_router = peer.router
    if isinstance(peer_router, ProphetRouter):
        p_ab = self._preds[peer.id]
        for dest, p_bc in peer_router._preds.items():
            if dest == self.node.id:
                continue
            candidate = p_ab * p_bc * self.beta
            if candidate > self._preds.get(dest, 0.0):
                self._preds[dest] = candidate
    Router.on_link_up(self, peer)


def reference_snf_on_link_up(self, peer):
    self.last_seen[peer.id] = self.now
    Router.on_link_up(self, peer)


def reference_sdsrp_on_link_up(self, peer, now):
    assert self.ctx is not None
    self._estimator.observe_link_up(self.ctx.node.id, now)
    peer_policy = peer.router.policy if peer.router is not None else None
    if isinstance(peer_policy, SdsrpPolicy) and peer_policy.dropped is not None:
        assert self.dropped is not None
        self.dropped.prune(now)
        if peer_policy.dropped.holds_drops:
            self.dropped.merge_from(peer_policy.dropped)


def reference_sdsrp_on_link_down(self, peer, now):
    assert self.ctx is not None
    self._estimator.observe_link_down(self.ctx.node.id, now)


REFERENCE_PATCHES = [
    (World, "update", reference_update),
    (World, "set_node_down", reference_set_node_down),
    (World, "force_link_down", reference_force_link_down),
    (world_module, "link_up", reference_link_up),
    (world_module, "link_down", reference_link_down),
    (Router, "on_link_up", reference_on_link_up),
    (Router, "on_link_down", reference_on_link_down),
    (Router, "try_send", reference_try_send),
    (ProphetRouter, "_age", reference_prophet_age),
    (ProphetRouter, "predictability", reference_prophet_predictability),
    (ProphetRouter, "on_link_up", reference_prophet_on_link_up),
    (SprayAndFocusRouter, "on_link_up", reference_snf_on_link_up),
    (SdsrpPolicy, "on_link_up", reference_sdsrp_on_link_up),
    (SdsrpPolicy, "on_link_down", reference_sdsrp_on_link_down),
]


@contextlib.contextmanager
def as_reference(enabled):
    """Patch in the reference code while the block runs, if *enabled*."""
    with contextlib.ExitStack() as stack:
        if enabled:
            for target, name, value in REFERENCE_PATCHES:
                stack.enter_context(mock.patch.object(target, name, value))
        yield


# -- what both sides must agree on ---------------------------------------------


def record_hook_calls(sim, nodes):
    """Log ``(time, hook, node id, peer id)`` for every link-hook call,
    through wrappers installed on each router instance.  The time is the
    one a hook is handed, or for the reference's one-argument hooks the
    one it reads."""
    calls = []
    for node in nodes:
        router = node.router
        for name in ("on_link_up", "on_link_down"):
            method = getattr(router, name)

            def logged(peer, *now, _method=method, _name=name, _id=node.id):
                calls.append((now[0] if now else sim.now, _name, _id, peer.id))
                return _method(peer, *now)

            setattr(router, name, logged)
    return calls


def comparable(summary):
    """A ``RunSummary`` record without wall clocks, NaN made comparable."""
    record = summary.record()
    del record["wall_seconds"]
    return {
        key: None if isinstance(value, float) and math.isnan(value) else value
        for key, value in record.items()
    }


def router_state(nodes):
    """What the routers' own link hooks keep: PRoPHET's predictability
    tables and aging times, Spray-and-Focus's last-encounter times."""
    state = []
    for node in nodes:
        router = node.router
        if isinstance(router, ProphetRouter):
            state.append((sorted(router._preds.items()), router._last_aged))
        elif isinstance(router, SprayAndFocusRouter):
            state.append(sorted(router.last_seen.items()))
    return state


def sdsrp_state(shared, nodes):
    """Every SDSRP store's records and the fleet's intermeeting estimate."""
    if shared is None:
        return None
    estimator = shared.estimator
    return (
        estimator.sample_count, estimator.mean_intermeeting(),
        [
            sorted(
                (origin, rec.record_time, sorted(rec.dropped.items()))
                for origin, rec in node.router.policy.dropped.known_records().items()
            )
            for node in nodes
        ],
    )


def apply(world, op):
    kind, node_id = op[0], op[2]
    if kind == "flap":
        world.force_link_down(node_id, op[3])
    elif kind == "down":
        world.set_node_down(node_id)
    else:
        world.set_node_up(node_id)


# -- micro-worlds: a small, churning RWP fleet ----------------------------------

N_NODES = 8
SIM_TIME = 120.0
STACKS = [
    ("snw", "fifo"),
    ("snw", "sdsrp"),
    ("epidemic", "fifo"),
    ("prophet", "fifo"),
    ("snf", "fifo"),
]

_node = st.integers(0, N_NODES - 1)
_slot = st.integers(0, int(SIM_TIME) - 2)
_op = st.one_of(
    st.tuples(st.just("flap"), _slot, _node, _node),
    st.tuples(st.just("down"), _slot, _node),
    st.tuples(st.just("up"), _slot, _node),
)


def micro_config(stack, seed):
    router, policy = stack
    return ScenarioConfig(
        name="link-path",
        n_nodes=N_NODES,
        sim_time=SIM_TIME,
        area=(300.0, 300.0),
        speed_range=(5.0, 15.0),
        pause_range=(0.0, 5.0),
        buffer_bytes=400_000,
        message_size=100_000,
        interval_range=(2.0, 5.0),
        ttl=60.0,
        initial_copies=4,
        router=router,
        policy=policy,
        seed=seed,
        trace_capacity=100_000,
    )


def run_micro(reference, stack, seed, ops):
    with as_reference(reference):
        built = build_scenario(micro_config(stack, seed))
        calls = record_hook_calls(built.sim, built.nodes)
        for op in ops:
            built.sim.schedule_at(op[1] + 0.5, apply, built.world, op)
        summary = run_built(built)
    assert built.trace is not None
    assert built.trace.events_seen == len(built.trace), "ring evicted events"
    return (
        calls, built.trace.to_jsonl(), comparable(summary),
        router_state(built.nodes), sdsrp_state(built.shared, built.nodes),
    )


@settings(max_examples=40, deadline=None)
@given(stack=st.sampled_from(STACKS), seed=st.integers(1, 10_000),
       ops=st.lists(_op, max_size=20))
def test_micro_world_matches_the_reference(stack, seed, ops):
    result = run_micro(False, stack, seed, ops)
    assert result == run_micro(True, stack, seed, ops)
    calls, _, summary, _, _ = result
    assert summary["contacts"] > 0
    assert any(name == "on_link_down" for _, name, _, _ in calls)


def test_micro_world_exercises_gossip_and_drops():
    # One fixed SDSRP run: the comparison covers drops, aborts and merges.
    ops = [
        ("flap", t, i % N_NODES, (i + 1) % N_NODES)
        for i, t in enumerate(range(5, 115, 7))
    ]
    ops += [("down", 30, 2), ("up", 45, 2), ("down", 60, 5), ("up", 61, 5)]
    result = run_micro(False, ("snw", "sdsrp"), 3, ops)
    assert result == run_micro(True, ("snw", "sdsrp"), 3, ops)
    _, jsonl, summary, _, (samples, _, records) = result
    assert summary["drops"].get("overflow", 0) > 0
    assert '"topic":"transfer.aborted"' in jsonl
    assert samples > 0
    assert any(len(node_records) > 1 for node_records in records)
