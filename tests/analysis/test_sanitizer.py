"""Runtime invariant sanitizer: seeded bugs must be caught, clean runs pass.

Each seeded-bug test corrupts a live simulation mid-run the way a real
regression would (bad accounting, leaked pin, protocol double-commit) and
asserts the sanitizer kills the run with a structured
:class:`~repro.errors.InvariantViolation` naming the culprit.
"""

from __future__ import annotations

import math
from types import SimpleNamespace

import pytest

from repro.analysis.sanitizer import Sanitizer
from repro.errors import InvariantViolation
from repro.experiments.runner import build_scenario
from repro.experiments.scenario import (
    epfl_scenario,
    random_waypoint_scenario,
    scale_scenario,
)
from repro.net.buffer import MessageBuffer
from repro.world import contacts
from repro.world.contacts import decode
from repro.world.node import Node
from repro.world.world import DueSet
from tests.helpers import build_micro_world, make_message


def small(policy: str = "sdsrp", seed: int = 3, **overrides):
    return scale_scenario(
        random_waypoint_scenario(policy=policy, seed=seed),
        node_factor=0.15,
        time_factor=0.08,
    ).replace(sanitize=True, **overrides)


def build_and_warm(config, until: float = 120.0):
    """Build a sanitized scenario and run it past the first messages."""
    built = build_scenario(config)
    assert built.sanitizer is not None
    built.sim.run(until=until)
    return built


# -- wiring ------------------------------------------------------------------


def test_sanitizer_installed_only_when_requested():
    clean = small().replace(sanitize=False)
    assert build_scenario(clean).sanitizer is None
    assert build_scenario(small()).sanitizer is not None


def test_env_var_enables_sanitizer(monkeypatch):
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    built = build_scenario(small().replace(sanitize=False))
    assert built.sanitizer is not None


def test_check_copies_gated_by_router():
    assert build_scenario(small()).sanitizer.check_copies  # snw
    epidemic = small(policy="fifo").replace(router="epidemic")
    assert not build_scenario(epidemic).sanitizer.check_copies


# -- seeded bug 1: corrupted buffer accounting --------------------------------


def test_corrupt_buffer_accounting_is_caught():
    built = build_and_warm(small())
    node = built.nodes[0]
    node.buffer._used += 1  # the seeded bug: accounting drifts off by a byte

    with pytest.raises(InvariantViolation) as exc:
        built.sim.run()
    assert exc.value.invariant == "buffer-accounting"
    assert exc.value.node_id == node.id
    assert exc.value.time is not None


def test_overfull_buffer_is_caught():
    built = build_and_warm(small())
    node = built.nodes[1]
    # Force used past capacity without touching the stored messages.
    node.buffer._used = node.buffer.capacity + 1

    with pytest.raises(InvariantViolation) as exc:
        built.sim.run()
    # Recomputation trips first (stored sizes no longer match), which is
    # still the right diagnosis: the accounting is corrupt.
    assert exc.value.invariant in ("buffer-accounting", "buffer-capacity")
    assert exc.value.node_id == node.id


# -- seeded bug 2: leaked pin -------------------------------------------------


def test_leaked_pin_is_caught():
    built = build_and_warm(small())
    node = built.nodes[2]
    # The seeded bug: a transfer teardown that forgot to unpin a message
    # which has since been dropped — the pin now references nothing.
    node.buffer._pins["M999"] = 1

    with pytest.raises(InvariantViolation) as exc:
        built.sim.run()
    assert exc.value.invariant == "pin-hygiene"
    assert exc.value.node_id == node.id
    assert exc.value.msg_id == "M999"


# -- seeded bug 3: double-committed transfer ----------------------------------


def test_double_commit_is_caught():
    built = build_and_warm(small(), until=600.0)
    commits: list = []
    built.sim.listeners.subscribe("transfer.commit", commits.append)
    built.sim.run(until=1200.0)
    assert commits, "expected at least one spray commit in the warm-up window"

    # The seeded bug: replay an already-committed transfer (a broken retry
    # path would do exactly this through the same emit).
    with pytest.raises(InvariantViolation) as exc:
        built.sim.listeners.emit("transfer.commit", commits[-1])
    assert exc.value.invariant == "single-commit"
    assert exc.value.msg_id == commits[-1].message.msg_id


def test_double_commit_unit():
    sanitizer = Sanitizer(SimpleNamespace(nodes=[]))
    transfer = SimpleNamespace(
        seq=7,
        sender=SimpleNamespace(id=1),
        receiver=SimpleNamespace(id=2),
        message=SimpleNamespace(msg_id="M1"),
    )
    sanitizer.on_commit(transfer)
    with pytest.raises(InvariantViolation, match="single-commit"):
        sanitizer.on_commit(transfer)


# -- seeded corruption of message state ---------------------------------------


def test_copy_inflation_is_caught():
    built = build_and_warm(small())
    # Find any buffered copy and counterfeit spray tokens onto it.
    victim = next(
        (m for node in built.nodes for m in node.buffer), None
    )
    assert victim is not None
    victim.copies = victim.initial_copies + 5

    with pytest.raises(InvariantViolation) as exc:
        built.sim.run()
    assert exc.value.invariant == "copy-conservation"
    assert exc.value.msg_id == victim.msg_id


def test_ttl_rewind_is_caught():
    built = build_and_warm(small())
    victim = next(
        (m for node in built.nodes for m in node.buffer), None
    )
    assert victim is not None
    victim.created_at += 3600.0  # rejuvenates the copy: remaining TTL jumps up

    with pytest.raises(InvariantViolation) as exc:
        built.sim.run()
    assert exc.value.invariant == "ttl-monotonic"
    assert exc.value.msg_id == victim.msg_id


# -- seeded bugs in the tick's skips ------------------------------------------


def test_missing_wake_on_buffer_remove_is_caught(monkeypatch):
    # The seeded bug: a buffer loses a copy but its neighbors are not woken,
    # so the idle-sender loop keeps skipping nodes that could re-offer it.
    # (Under SDSRP a dropper rejects the copy it dropped anyway, so FIFO.)
    monkeypatch.setattr(Node, "wake_neighbors", lambda self: None)
    built = build_scenario(small(policy="fifo", seed=4))

    with pytest.raises(InvariantViolation) as exc:
        built.sim.run()
    assert exc.value.invariant == "scan-memo"
    assert exc.value.node_id is not None and exc.value.msg_id is not None


def test_frozen_expiry_bound_is_caught(monkeypatch):
    # The seeded bug: the buffer's expiry bound never moves, so the tick
    # never purges the buffer and expired copies linger.
    monkeypatch.setattr(
        MessageBuffer,
        "next_expiry",
        property(lambda self: math.inf, lambda self, value: None),
        raising=False,
    )
    built = build_scenario(small(ttl=300.0))

    with pytest.raises(InvariantViolation) as exc:
        built.sim.run()
    assert exc.value.invariant == "ttl-purge"
    assert exc.value.msg_id is not None


# -- seeded bugs in the due set ------------------------------------------------


def sanitized_pair():
    """Two linked nodes and a loner, sanitized; the first tick is at t=0."""
    mw = build_micro_world(points=[(0.0, 0.0), (50.0, 0.0), (900.0, 900.0)])
    sanitizer = Sanitizer(mw.world)
    sanitizer.subscribe(mw.sim)
    return mw, sanitizer


def test_node_dropped_from_due_set_is_caught(monkeypatch):
    # The seeded bug: a sleep that takes the node out of the due set but
    # leaves it awake, so the idle-sender loop would skip a node that the
    # next change may give something to send.
    monkeypatch.setattr(Node, "sleep", lambda self: self.due.awake.discard(self.id))
    mw, sanitizer = sanitized_pair()

    with pytest.raises(InvariantViolation) as exc:
        mw.sim.run(until=0.5)
    assert exc.value.invariant == "due-set"
    assert exc.value.node_id == 0  # the first link-up's empty-buffer sleep
    assert "awake but missing" in str(exc.value)
    assert sanitizer.ticks_checked == 0  # caught at the first tick


def test_expiry_bound_below_due_set_bound_is_caught(monkeypatch):
    # The seeded bug: the buffer lowers its expiry bound but the due set
    # ignores it, so the purge loop would skip the walk that purges this
    # buffer.
    monkeypatch.setattr(DueSet, "lower_expiry", lambda self, bound: None)
    mw, sanitizer = sanitized_pair()
    mw.router(2).create_message(make_message(source=2, destination=0, ttl=30.0))

    with pytest.raises(InvariantViolation) as exc:
        mw.sim.run(until=0.5)
    assert exc.value.invariant == "due-set"
    assert exc.value.node_id == 2
    assert "30.000000s is below the due set's min_expiry inf" in str(exc.value)
    assert sanitizer.ticks_checked == 0


# -- seeded corruption of SDSRP's dropped-list bookkeeping ----------------------


def _store_with_entries(built):
    return next(
        node.router.policy.dropped
        for node in built.nodes
        if len(node.router.policy.dropped)
    )


def test_corrupt_dropped_count_is_caught():
    built = build_and_warm(small(), until=600.0)
    store = _store_with_entries(built)
    victim = next(iter(store._counts))
    store._counts[victim] += 1  # the seeded bug: d_i drifts off by one

    with pytest.raises(InvariantViolation) as exc:
        built.sim.run()
    assert exc.value.invariant == "dropped-count"
    assert exc.value.node_id == store.node_id
    assert exc.value.msg_id == victim


def test_late_prune_bound_is_caught():
    built = build_and_warm(small(), until=600.0)
    store = _store_with_entries(built)
    store.next_expiry = math.inf  # the seeded bug: entries never pruned

    with pytest.raises(InvariantViolation) as exc:
        built.sim.run()
    assert exc.value.invariant == "dropped-count"
    assert exc.value.node_id == store.node_id
    assert exc.value.msg_id is not None


# -- seeded corruption of the link set -------------------------------------------


def _drop_key(world, i, j):
    """A teardown that forgot link_down: both ends still list each other."""
    world.link_keys = world.link_keys[1:]
    return i


def _drop_neighbor_entry(world, i, j):
    del world.nodes[i].neighbors[j]
    return i


def _link_to_a_down_node(world, i, j):
    world.down_nodes.add(j)
    return j


def _unsorted_keys(world, i, j):
    world.link_keys = world.link_keys[::-1].copy()
    return None


@pytest.mark.parametrize("corrupt", [
    _drop_key, _drop_neighbor_entry, _link_to_a_down_node, _unsorted_keys,
])
def test_link_set_corruption_is_caught(corrupt):
    built = build_and_warm(small())
    world = built.world
    assert built.sanitizer.world is world
    assert world.link_keys.size >= 2, "too few links to corrupt; test is vacuous"
    i, j = decode(world.link_keys[:1], len(world.nodes))[0]
    culprit = corrupt(world, i, j)

    with pytest.raises(InvariantViolation) as exc:
        built.sanitizer.check_tick(built.sim.now)
    assert exc.value.invariant == "link-mirror"
    assert exc.value.node_id == culprit


# -- seeded faults in contact detection ----------------------------------------


def test_stale_candidate_list_is_caught(monkeypatch):
    # The seeded bug: a staleness bound that never trips, so the world's
    # detector keeps testing its first tick's candidates while nodes move.
    monkeypatch.setattr(contacts, "_HALF_SKIN", math.inf)
    built = build_scenario(small())

    with pytest.raises(InvariantViolation) as exc:
        built.sim.run()
    assert exc.value.invariant == "contact-set"
    assert "in range but not linked" in str(exc.value)
    assert built.sanitizer.ticks_checked > 0, "caught on the first tick: vacuous"


def test_stale_candidate_list_is_caught_at_a_grown_skin(monkeypatch):
    # The same seeded bug once the taxis' drift has grown the skin past
    # the floor: a stale list is caught whatever its skin.
    config = scale_scenario(
        epfl_scenario(policy="sdsrp", seed=3),
        node_factor=0.15,
        time_factor=0.08,
    ).replace(sanitize=True)
    built = build_scenario(config)
    built.sim.run(until=30.0)
    assert built.world.detector._skin > config.radio_range
    monkeypatch.setattr(contacts, "_HALF_SKIN", math.inf)

    with pytest.raises(InvariantViolation) as exc:
        built.sim.run()
    assert exc.value.invariant == "contact-set"
    assert "in range but not linked" in str(exc.value)


def test_link_dropped_everywhere_is_caught():
    # A link torn out of the keys and both neighbor maps leaves a world
    # that mirrors itself; only the pair's distance shows it is wrong.
    built = build_and_warm(small())
    world = built.world
    i, j = decode(world.link_keys[:1], len(world.nodes))[0]
    world.link_keys = world.link_keys[1:]
    del world.nodes[i].neighbors[j]
    del world.nodes[j].neighbors[i]
    built.sanitizer._check_link_mirror(built.sim.now)

    with pytest.raises(InvariantViolation) as exc:
        built.sanitizer.check_tick(built.sim.now)
    assert exc.value.invariant == "contact-set"
    assert exc.value.node_id == i
    assert f"pair ({i}, {j}) is in range but not linked" in str(exc.value)


# -- clean runs ---------------------------------------------------------------


@pytest.mark.parametrize("policy,router", [
    ("sdsrp", "snw"),
    ("fifo", "snw"),
    ("fifo", "epidemic"),
])
def test_clean_sanitized_run_has_no_violations(policy, router):
    built = build_scenario(small(policy=policy).replace(router=router))
    built.sim.run()
    assert built.sanitizer.ticks_checked > 0
    assert built.sim.now == built.config.sim_time


def test_violation_message_names_everything():
    err = InvariantViolation(
        "pin-hygiene", "leaked", node_id=4, msg_id="M7", time=12.5
    )
    text = str(err)
    assert "pin-hygiene" in text
    assert "node=4" in text
    assert "msg=M7" in text
    assert "t=12.5" in text
