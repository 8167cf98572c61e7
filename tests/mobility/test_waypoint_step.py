"""The waypoint engine's step, bit for bit against the loop it replaced.

``WaypointEngine._step`` moves every node in one whole-array pass and does
per-node scalar work only for nodes that reach their waypoint.  The
whole-array loop it replaced is kept here as :func:`reference_step`;
positions, targets, speeds, pauses and the RNG state must match it
exactly.
"""

from __future__ import annotations

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.mobility.base import WaypointEngine
from repro.mobility.random_waypoint import RandomWaypoint
from repro.mobility.taxi import TaxiFleet

STATE = ("_pos", "_target", "_speed", "_pause_left")


def reference_step(m: WaypointEngine, dt: float) -> None:
    """The step as a loop over shrinking index sets (the reference)."""
    rng = m._rng
    budget = np.full(m.n_nodes, dt)
    paused = m._pause_left > 0
    if paused.any():
        consumed = np.minimum(m._pause_left[paused], budget[paused])
        m._pause_left[paused] -= consumed
        budget[paused] -= consumed

    for _ in range(64):
        active = budget > 1e-12
        pause_active = active & (m._pause_left > 0)
        if pause_active.any():
            consumed = np.minimum(m._pause_left[pause_active], budget[pause_active])
            m._pause_left[pause_active] -= consumed
            budget[pause_active] -= consumed
            active = budget > 1e-12
        if not active.any():
            break
        idx = np.nonzero(active & (m._pause_left <= 0))[0]
        if idx.size == 0:
            break
        vec = m._target[idx] - m._pos[idx]
        dist = np.hypot(vec[:, 0], vec[:, 1])
        reach = m._speed[idx] * budget[idx]
        arriving = reach >= dist
        moving = ~arriving

        move_idx = idx[moving]
        if move_idx.size:
            d = dist[moving]
            step = reach[moving] / np.maximum(d, 1e-12)
            m._pos[move_idx] += vec[moving] * step[:, None]
            budget[move_idx] = 0.0

        arrive_idx = idx[arriving]
        if arrive_idx.size:
            m._pos[arrive_idx] = m._target[arrive_idx]
            travel_time = dist[arriving] / m._speed[arrive_idx]
            budget[arrive_idx] -= travel_time
            k = arrive_idx.size
            m._target[arrive_idx] = m.sample_targets(k, rng)
            m._speed[arrive_idx] = m.sample_speeds(k, rng)
            m._pause_left[arrive_idx] = m.sample_pauses(k, rng)
    else:
        raise SimulationError("reference step did not converge")


def with_reference(engine: WaypointEngine) -> WaypointEngine:
    """A deep copy of *engine* (RNG included) that steps by the reference."""
    twin = copy.deepcopy(engine)
    twin._step = lambda dt: reference_step(twin, dt)
    return twin


def assert_identical(engine: WaypointEngine, reference: WaypointEngine) -> None:
    for name in STATE:
        got, want = getattr(engine, name), getattr(reference, name)
        assert got.tobytes() == want.tobytes(), name
    assert engine._rng.bit_generator.state == reference._rng.bit_generator.state


def started(engine: WaypointEngine, seed: int) -> WaypointEngine:
    engine.initialize(np.random.default_rng(seed))
    return engine


def assert_same_walk(engine: WaypointEngine, steps: int) -> int:
    """Advance *engine* and its reference twin one second at a time,
    comparing every step; returns how many steps had a node arrive."""
    reference = with_reference(engine)
    steps_with_arrivals = 0
    for t in range(1, steps + 1):
        before = engine._rng.bit_generator.state
        engine.advance(float(t))
        reference.advance(float(t))
        assert_identical(engine, reference)
        steps_with_arrivals += engine._rng.bit_generator.state != before
    return steps_with_arrivals


class TestLongWalks:
    def test_paper_random_waypoint(self):
        # Table II's fleet: 100 nodes at 2 m/s over 4500 m x 3400 m.
        engine = started(RandomWaypoint(100, (4500.0, 3400.0), (2.0, 2.0)), 1)
        assert assert_same_walk(engine, 3000) > 100

    def test_random_waypoint_with_pauses(self):
        engine = started(
            RandomWaypoint(60, (400.0, 300.0), (1.0, 12.0), (0.0, 4.0)), 2
        )
        assert assert_same_walk(engine, 2000) > 1000

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_taxi_fleet(self, seed):
        engine = started(TaxiFleet(200), seed)
        assert assert_same_walk(engine, 2000) > 100

    def test_ten_thousand_node_fleet(self):
        # The benchmark's fleet-10k mobility.
        engine = started(
            RandomWaypoint(10_000, (12_000.0, 12_000.0), (1.0, 3.0)), 1
        )
        assert assert_same_walk(engine, 2000) > 100

    def test_hand_set_pauses_switch_between_the_two_passes(self):
        # A fleet that never draws a pause takes the lean pass, until some
        # nodes are put mid-pause by hand; their steps take the general
        # pass until the last of those pauses runs out.
        engine = started(RandomWaypoint(80, (900.0, 700.0), (1.0, 9.0)), 5)
        reference = with_reference(engine)
        chooser = np.random.default_rng(55)
        passes = {"lean": 0, "general": 0}
        for t in range(1, 1501):
            if t % 40 == 0:
                held = chooser.choice(80, size=3, replace=False)
                pauses = chooser.uniform(0.2, 6.0, size=3)
                engine._pause_left[held] = pauses
                reference._pause_left[held] = pauses
            passes["general" if engine._pause_left.any() else "lean"] += 1
            engine.advance(float(t))
            reference.advance(float(t))
            assert_identical(engine, reference)
        assert passes["lean"] > 500 and passes["general"] > 100, passes

    def test_fractional_steps(self):
        # advance() hands _step dt < 1 when asked for times between ticks.
        engine = started(
            RandomWaypoint(30, (200.0, 200.0), (1.0, 8.0), (0.0, 3.0)), 4
        )
        reference = with_reference(engine)
        for t in np.cumsum(np.full(2000, 0.37)):
            engine.advance(float(t))
            reference.advance(float(t))
            assert_identical(engine, reference)


def set_legs(engines, nodes, pos, target, pause_left) -> None:
    """Give *nodes* of every engine in *engines* the same hand-set legs."""
    for engine in engines:
        engine._pos[nodes] = pos
        engine._target[nodes] = target
        engine._pause_left[nodes] = pause_left


def arrived(before: np.ndarray, engine: WaypointEngine) -> int:
    """How many nodes drew a new waypoint since *before* (targets)."""
    return int(np.count_nonzero((engine._target != before).any(axis=1)))


class TestTaxiArrivals:
    """Ticks as taxi-200 has them: a few taxis reach their fares, and some
    end a pause mid-tick; the per-node arrival work must match the
    whole-array reference bit for bit, RNG state included."""

    @pytest.mark.parametrize("arrivals", [1, 2, 3, 4, 5])
    def test_ticks_with_a_few_arrivals(self, arrivals):
        engine = started(TaxiFleet(200), arrivals)
        reference = with_reference(engine)
        chooser = np.random.default_rng(100 + arrivals)
        counts = []
        for t in range(1, 201):
            nodes = chooser.choice(200, size=arrivals + 3, replace=False)
            fares, held = nodes[:arrivals], nodes[arrivals:]
            # The fares end within the tick, some after a pause that ends
            # mid-tick first; the held taxis resume driving mid-tick.
            pause = chooser.uniform(0.0, 0.6, arrivals)
            pause *= chooser.random(arrivals) < 0.5
            reach = engine._speed[fares] * (1.0 - pause)
            reach *= chooser.uniform(0.05, 0.95, arrivals)
            angle = chooser.uniform(0.0, 2 * np.pi, arrivals)
            heading = np.column_stack([np.cos(angle), np.sin(angle)])
            pos = engine._pos[fares]
            fare = pos + heading * reach[:, None]
            set_legs((engine, reference), fares, pos, fare, pause)
            set_legs(
                (engine, reference), held, engine._pos[held],
                engine._target[held], chooser.uniform(0.01, 0.99, held.size),
            )
            before = engine._target.copy()
            engine.advance(float(t))
            reference.advance(float(t))
            assert_identical(engine, reference)
            counts.append(arrived(before, engine))
        # Every tick had its hand-set arrivals, and a few had more.
        assert min(counts) >= arrivals, counts

    def test_a_tick_where_every_taxi_arrives(self):
        # Far more arrivals than taxi-200 ever has in one tick: the draws
        # stay grouped, in node order, across every round.
        engine = started(TaxiFleet(200), 9)
        reference = with_reference(engine)
        for t in range(1, 31):
            pos = engine._pos
            set_legs(
                (engine, reference), np.arange(200), pos.copy(), pos + 0.5, 0.0
            )
            before = engine._target.copy()
            engine.advance(float(t))
            reference.advance(float(t))
            assert_identical(engine, reference)
            assert arrived(before, engine) == 200

    def test_a_fleet_passing_waypoints_every_tick(self):
        # A small, fast fleet: nodes pass several waypoints in one tick, so
        # arrivals take several rounds of grouped draws.
        engine = started(
            RandomWaypoint(50, (30.0, 20.0), (20.0, 60.0), (0.0, 0.2)), 10
        )
        assert assert_same_walk(engine, 300) == 300


def fleets() -> st.SearchStrategy[WaypointEngine]:
    """Waypoint fleets of every kind the drift bound covers."""
    return st.one_of(
        st.builds(
            lambda n, hi: RandomWaypoint(n, (300.0, 200.0), (0.5, hi)),
            st.integers(1, 40), st.floats(0.5, 30.0),
        ),
        st.builds(
            lambda n, hi, pause: RandomWaypoint(
                n, (300.0, 200.0), (1.0, hi), (0.0, pause)
            ),
            st.integers(1, 40), st.floats(1.0, 30.0), st.floats(0.0, 5.0),
        ),
        st.builds(TaxiFleet, st.integers(1, 60)),
    )


class TestSpeedBound:
    """The contact detector skips its positional test on the strength of
    ``max_speed``: no step may move a node farther than ``max_speed * dt``."""

    @given(
        fleets(),
        st.integers(0, 2**32 - 1),
        st.lists(st.floats(0.05, 3.0), min_size=1, max_size=60),
    )
    @settings(max_examples=60, deadline=None)
    def test_no_step_moves_a_node_farther_than_the_bound(
        self, engine, seed, gaps
    ):
        engine.initialize(np.random.default_rng(seed))
        bound = engine.max_speed
        assert bound == engine.speed_range[1]
        t = 0.0
        for gap in gaps:
            before = engine.positions.copy()
            t += gap
            engine.advance(t)
            moved = np.hypot(*(engine.positions - before).T).max()
            # Rounding of the positions themselves: far inside the
            # detector's margin of 1e-9 of its half skin.
            assert moved <= bound * gap * (1 + 1e-9) + 1e-9

    def test_models_not_shown_to_move_in_legs_declare_no_bound(self):
        from repro.mobility.random_walk import RandomWalk
        from repro.mobility.stationary import Stationary

        assert Stationary(3, (10.0, 10.0)).max_speed is None
        assert RandomWalk(3, (10.0, 10.0)).max_speed is None


class ScriptedTargets(RandomWaypoint):
    """Waypoints drawn from a fixed list (RNG-free), for hand-built legs;
    the first is the one initialize() draws."""

    def __init__(self, targets: list[tuple[float, float]], **kwargs) -> None:
        super().__init__(1, (1000.0, 1000.0), **kwargs)
        self._script = list(targets)

    def sample_targets(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return np.array([self._script.pop(0) for _ in range(n)])


def one_node(pos, target, speed, pause_left, **kwargs) -> WaypointEngine:
    engine = RandomWaypoint(1, (1000.0, 1000.0), **kwargs)
    engine.initialize(np.random.default_rng(0))
    return set_leg(engine, pos, target, speed, pause_left)


def set_leg(engine, pos, target, speed, pause_left) -> WaypointEngine:
    engine._pos = np.array([pos], dtype=float)
    engine._target = np.array([target], dtype=float)
    engine._speed = np.array([speed], dtype=float)
    engine._pause_left = np.array([pause_left], dtype=float)
    return engine


def step_both(engine: WaypointEngine, dt: float = 1.0) -> None:
    reference = with_reference(engine)
    engine._step(dt)
    reference._step(dt)
    assert_identical(engine, reference)


class TestEdgeCases:
    def test_pause_ending_exactly_at_dt_does_not_move(self):
        engine = one_node((10.0, 10.0), (500.0, 10.0), 2.0, 1.0)
        step_both(engine)
        assert engine._pos.tolist() == [[10.0, 10.0]]
        assert engine._pause_left.tolist() == [0.0]

    def test_pause_ending_mid_step_moves_for_the_rest(self):
        engine = one_node((10.0, 10.0), (522.0, 10.0), 2.0, 0.25)
        step_both(engine)
        assert engine._pos.tolist() == [[11.5, 10.0]]
        assert engine._pause_left.tolist() == [0.0]

    def test_reach_equal_to_distance_arrives(self):
        engine = one_node(
            (10.0, 10.0), (12.0, 10.0), 2.0, 0.0, speed_range=(3.0, 3.0)
        )
        step_both(engine)
        # Arrived with no time left: a new leg at the new speed, not moved.
        assert engine._pos.tolist() == [[12.0, 10.0]]
        assert engine._speed.tolist() == [3.0]
        assert engine._target.tolist() != [[12.0, 10.0]]

    @pytest.mark.parametrize("dt", [1e-12, 5e-13])
    def test_budget_at_or_below_the_threshold_does_not_move(self, dt):
        engine = one_node((10.0, 10.0), (500.0, 10.0), 2.0, 0.0)
        step_both(engine, dt)
        assert engine._pos.tolist() == [[10.0, 10.0]]

    def test_two_waypoints_passed_in_one_step(self):
        engine = ScriptedTargets(
            [(0.0, 0.0), (13.0, 14.0), (13.0, 20.0), (13.0, 40.0)],
            speed_range=(10.0, 10.0),
        )
        engine.initialize(np.random.default_rng(0))
        set_leg(engine, (10.0, 10.0), (10.0, 14.0), 10.0, 0.0)
        step_both(engine)
        # At 10 m/s: the 4 m leg, the 3 m leg, then 3 m of the 6 m leg.
        assert engine._pos.tolist() == [[13.0, 17.0]]
        assert engine._target.tolist() == [[13.0, 20.0]]
