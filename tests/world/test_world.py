"""World update loop: link lifecycle, TTL purge, validation."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.simulator import Simulator
from repro.errors import ConfigurationError
from repro.mobility.stationary import Stationary
from repro.net.transfer import TransferManager
from repro.units import kbps
from repro.world.contacts import KDTreeDetector, decode
from repro.world.node import Node
from repro.world.radio import Radio
from repro.world.world import World
from tests.helpers import build_micro_world, make_message, scripted_mobility


class TestLinkLifecycle:
    def test_links_come_up_on_first_tick(self):
        mw = build_micro_world(points=[(0.0, 0.0), (50.0, 0.0), (500.0, 500.0)])
        mw.sim.run(until=1.0)
        assert mw.world.links == {(0, 1)}
        assert mw.contacts.contact_count == 1

    def test_link_up_and_down_events_fire(self):
        mobility = scripted_mobility(
            [0.0, 10.0, 11.0, 20.0, 21.0, 40.0],
            [
                [(0.0, 0.0), (50.0, 0.0)],
                [(0.0, 0.0), (50.0, 0.0)],
                [(0.0, 0.0), (800.0, 800.0)],
                [(0.0, 0.0), (800.0, 800.0)],
                [(0.0, 0.0), (50.0, 0.0)],
                [(0.0, 0.0), (50.0, 0.0)],
            ],
        )
        mw = build_micro_world(mobility=mobility, sim_time=40.0)
        ups, downs = [], []
        mw.sim.listeners.subscribe("link.up", lambda a, b: ups.append(mw.sim.now))
        mw.sim.listeners.subscribe("link.down", lambda a, b: downs.append(mw.sim.now))
        mw.sim.run()
        assert len(ups) == 2 and len(downs) == 1
        assert downs[0] == pytest.approx(11.0, abs=1.5)

    def test_neighbor_sets_symmetric(self):
        mw = build_micro_world(points=[(0.0, 0.0), (50.0, 0.0)])
        mw.sim.run(until=2.0)
        assert 1 in mw.nodes[0].neighbors
        assert 0 in mw.nodes[1].neighbors


class TestTtlPurge:
    def test_expired_messages_are_purged(self):
        mw = build_micro_world(points=[(0.0, 0.0), (900.0, 900.0)])
        msg = make_message(source=0, destination=1, ttl=10.0)
        mw.router(0).create_message(msg)
        mw.sim.run(until=12.0)
        assert "M1" not in mw.nodes[0].buffer
        assert mw.metrics.drops_by_reason.get("ttl") == 1


class TestValidation:
    def _stack(self, n_nodes_world: int, n_nodes_mobility: int):
        sim = Simulator(end_time=10.0)
        mobility = Stationary(n_nodes_mobility, (100.0, 100.0))
        radio = Radio(100.0, kbps(250))
        nodes = [Node(i, radio, 1000) for i in range(n_nodes_world)]
        return sim, mobility, nodes, TransferManager(sim)

    def test_node_count_must_match_mobility(self):
        sim, mobility, nodes, tm = self._stack(2, 3)
        with pytest.raises(ConfigurationError):
            World(sim, mobility, nodes, tm)

    def test_node_ids_must_be_dense(self):
        sim, mobility, _, tm = self._stack(0, 2)
        radio = Radio(100.0, kbps(250))
        nodes = [Node(0, radio, 1000), Node(5, radio, 1000)]
        with pytest.raises(ConfigurationError):
            World(sim, mobility, nodes, tm)

    def test_tick_must_be_positive(self):
        sim, mobility, nodes, tm = self._stack(2, 2)
        with pytest.raises(ConfigurationError):
            World(sim, mobility, nodes, tm, tick=0.0)


class TestHeterogeneousRanges:
    def test_link_uses_smaller_range(self):
        sim = Simulator(end_time=10.0)
        mobility = Stationary(2, (1000.0, 1000.0), points=[(0.0, 0.0), (80.0, 0.0)])
        long_radio = Radio(200.0, kbps(250))
        short_radio = Radio(50.0, kbps(250))
        nodes = [Node(0, long_radio, 1000), Node(1, short_radio, 1000)]
        tm = TransferManager(sim)
        world = World(sim, mobility, nodes, tm)
        world.start(np.random.default_rng(0))
        sim.run(until=2.0)
        # 80 m apart: within the long radio's 200 m but not the short's 50 m.
        assert world.links == frozenset()

    def test_link_within_both_ranges(self):
        sim = Simulator(end_time=10.0)
        mobility = Stationary(2, (1000.0, 1000.0), points=[(0.0, 0.0), (40.0, 0.0)])
        nodes = [
            Node(0, Radio(200.0, kbps(250)), 1000),
            Node(1, Radio(50.0, kbps(250)), 1000),
        ]
        tm = TransferManager(sim)
        world = World(sim, mobility, nodes, tm)
        world.start(np.random.default_rng(0))
        sim.run(until=2.0)
        assert world.links == {(0, 1)}

    def test_distance_equal_to_the_smaller_range_links(self):
        sim = Simulator(end_time=10.0)
        mobility = Stationary(2, (1000.0, 1000.0), points=[(0.0, 0.0), (50.0, 0.0)])
        nodes = [
            Node(0, Radio(200.0, kbps(250)), 1000),
            Node(1, Radio(50.0, kbps(250)), 1000),
        ]
        world = World(sim, mobility, nodes, TransferManager(sim))
        world.start(np.random.default_rng(0))
        sim.run(until=2.0)
        assert world.links == {(0, 1)}

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_mask_matches_the_per_pair_test(self, seed):
        """Pairs placed on their smaller range, where rounding decides the
        tie: the link set equals the per-pair ``diff @ diff`` loop's."""
        rng = np.random.default_rng(seed)
        ranges = rng.choice([37.3, 50.0, 100.0], size=400)
        anchors = rng.uniform(0.0, 3000.0, size=(200, 2))
        limit = np.minimum(ranges[:200], ranges[200:])
        angle = rng.uniform(0.0, 2 * np.pi, size=200)
        partners = anchors + limit[:, None] * np.column_stack(
            [np.cos(angle), np.sin(angle)]
        )
        points = np.vstack([anchors, partners])
        sim = Simulator(end_time=10.0)
        mobility = Stationary(400, (3200.0, 3200.0), points=points)
        nodes = [Node(i, Radio(float(r), kbps(250)), 1000) for i, r in enumerate(ranges)]
        world = World(sim, mobility, nodes, TransferManager(sim))
        world.start(np.random.default_rng(0))
        sim.run(until=1.0)

        expected = set()
        for i, j in decode(KDTreeDetector().pairs(points, 100.0), 400):
            pair_limit = min(ranges[i], ranges[j])
            diff = points[i] - points[j]
            if float(diff @ diff) <= pair_limit * pair_limit:
                expected.add((i, j))
        assert 100 < len(expected) < 200
        assert world.links == expected


def keyed_world(n: int):
    """A world ready for direct ``update()`` calls, and the list its link
    events are logged to."""
    sim = Simulator(end_time=10.0)
    radio = Radio(100.0, kbps(250))
    nodes = [Node(i, radio, 1000) for i in range(n)]
    world = World(sim, Stationary(n, (100.0, 100.0)), nodes, TransferManager(sim))
    world.mobility.initialize(np.random.default_rng(0))
    events: list = []
    sim.listeners.subscribe("link.up", lambda a, b: events.append(("up", (a.id, b.id))))
    sim.listeners.subscribe(
        "link.down", lambda a, b: events.append(("down", (a.id, b.id)))
    )
    return world, events


def detect(world: World, pairs) -> None:
    """Make the world's detector find exactly *pairs* from now on."""
    n = len(world.nodes)
    keys = np.array(sorted(i * n + j for i, j in pairs), dtype=np.int64)
    world.detector.pairs = lambda positions, radius, drift: keys


class TestLinkKeyDiff:
    """The sorted-key link set against the tuple-set diff it replaced: the
    same link events in the same order, for any sequence of detected sets
    (empty, identical and all-changed ones among them), down nodes and
    flaps."""

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_events_match_the_tuple_set_reference(self, data):
        n = data.draw(st.integers(min_value=2, max_value=8), label="n")
        every = [(i, j) for i in range(n) for j in range(i + 1, n)]
        world, events = keyed_world(n)
        detected: set = set()
        links: set = set()  # the reference world's tuple set
        down: set = set()
        for _ in range(data.draw(st.integers(min_value=1, max_value=10))):
            action = data.draw(st.sampled_from(
                ["tick", "empty", "same", "flip", "down", "up", "flap"]
            ))
            expected = []
            if action == "down":
                k = data.draw(st.integers(min_value=0, max_value=n - 1))
                world.set_node_down(k)
                if k not in down:
                    down.add(k)
                    gone = sorted(p for p in links if k in p)
                    links -= set(gone)
                    expected = [("down", p) for p in gone]
            elif action == "up":
                k = data.draw(st.integers(min_value=0, max_value=n - 1))
                world.set_node_up(k)
                down.discard(k)
            elif action == "flap":
                i, j = data.draw(st.sampled_from(every))
                existed = (i, j) in links
                assert world.force_link_down(j, i) is existed
                if existed:
                    links.discard((i, j))
                    expected = [("down", (i, j))]
            else:
                if action == "tick":
                    detected = data.draw(st.sets(st.sampled_from(every)))
                elif action == "empty":
                    detected = set()
                elif action == "flip":
                    detected = set(every) - detected
                detect(world, detected)
                world.update()
                new = {p for p in detected if not down & set(p)}
                expected = [("down", p) for p in sorted(links - new)]
                expected += [("up", p) for p in sorted(new - links)]
                links = new
            assert events == expected
            events.clear()
            assert world.links == links
            assert np.all(world.link_keys[1:] > world.link_keys[:-1])

    def test_out_of_range_flap_is_not_a_link(self):
        world, _events = keyed_world(3)
        detect(world, [(1, 2)])
        world.update()
        # (0, 5) would alias key 5 = (1, 2) if ids were not range-checked.
        assert world.force_link_down(0, 5) is False
        assert world.force_link_down(1, 1) is False
        assert world.links == {(1, 2)}


class TestFlipTicks:
    """The tick reads link changes off the candidates that flipped."""

    def test_a_tick_with_no_flip_keeps_the_link_array(self):
        mw = build_micro_world(points=[(0.0, 0.0), (50.0, 0.0), (500.0, 500.0)])
        events = []
        for topic in ("link.up", "link.down"):
            mw.sim.listeners.subscribe(
                topic, lambda a, b, topic=topic: events.append(topic)
            )
        mw.sim.run(until=1.0)
        keys = mw.world.link_keys
        assert events == ["link.up"]
        mw.sim.run(until=20.0)
        assert mw.world.link_keys is keys
        assert events == ["link.up"]

    def test_a_moving_fleet_fires_the_tuple_set_diff(self):
        # The paper's 2 m/s legs: most ticks keep the candidates, some flip
        # a pair, a few rebuild; every tick's events must be the sorted
        # tuple-set diff of the reference link sets, downs first.
        from repro.mobility.random_waypoint import RandomWaypoint

        n = 30
        mobility = RandomWaypoint(n, (600.0, 500.0), (2.0, 2.0))
        mw = build_micro_world(mobility=mobility, sim_time=400.0)
        world = mw.world
        events: list = []
        for topic in ("link.down", "link.up"):
            mw.sim.listeners.subscribe(
                topic, lambda a, b, topic=topic: events.append((topic, (a.id, b.id)))
            )
        links: set = set()
        kept = flipped = 0
        for t in range(400):
            before = world.link_keys
            mw.sim.run(until=float(t))
            truth = {
                (i, j) for i, j in decode(
                    KDTreeDetector().pairs(world.positions, 100.0), n
                )
            }
            expected = [("link.down", p) for p in sorted(links - truth)]
            expected += [("link.up", p) for p in sorted(truth - links)]
            assert events == expected, t
            assert world.links == truth
            if world.link_keys is before:
                assert not events
                kept += 1
            elif events and world.detector.changes(before) is not None:
                flipped += 1
            events.clear()
            links = truth
        assert kept > 100 and flipped > 20, (kept, flipped)


class TestDeterministicLinkOrder:
    def test_simultaneous_link_ups_fire_in_sorted_pair_order(self):
        """Three pairwise-close nodes: link.up events are emitted in sorted
        (i, j) order so runs are reproducible regardless of set iteration."""
        from tests.helpers import build_micro_world

        mw = build_micro_world(
            points=[(0.0, 0.0), (50.0, 0.0), (25.0, 40.0)]
        )
        ups = []
        mw.sim.listeners.subscribe(
            "link.up", lambda a, b: ups.append((a.id, b.id))
        )
        mw.sim.run(until=1.0)
        assert ups == sorted(ups)
        assert len(ups) == 3
