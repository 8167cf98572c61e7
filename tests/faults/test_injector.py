"""Fault injector and the world-level fault hooks it drives."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.sanitizer import Sanitizer
from repro.errors import FaultInjectionError
from repro.faults import FaultEvent, FaultPlan
from repro.faults.injector import (
    KIND_LINK_FLAP,
    KIND_NODE_DOWN,
    KIND_NODE_UP,
    KIND_TRANSFER_FAULT,
    FaultInjector,
)
from tests.helpers import build_micro_world, make_message, total_copies_in_network

LINKED = [(0.0, 0.0), (50.0, 0.0)]       # inside the 100 m default range
APART = [(0.0, 0.0), (500.0, 0.0)]       # never in range


class TestWorldFaultHooks:
    def test_node_down_drops_links_and_blocks_reforming(self):
        mw = build_micro_world(points=LINKED, sim_time=30.0)
        mw.sim.run(until=2.0)
        assert (0, 1) in mw.world.links

        mw.world.set_node_down(0)
        assert mw.world.links == set()
        assert not mw.nodes[0].neighbors and not mw.nodes[1].neighbors
        mw.sim.run(until=5.0)  # ticks pass; the link must stay down
        assert mw.world.links == set()

        mw.world.set_node_up(0)
        mw.sim.run(until=7.0)  # re-forms at the next world tick
        assert (0, 1) in mw.world.links

    def test_force_link_down_reports_existence(self):
        mw = build_micro_world(points=LINKED, sim_time=30.0)
        mw.sim.run(until=2.0)
        assert mw.world.force_link_down(1, 0) is True  # order-insensitive
        assert (0, 1) not in mw.world.links
        assert mw.world.force_link_down(0, 1) is False
        mw.sim.run(until=4.0)  # both endpoints healthy: re-forms next tick
        assert (0, 1) in mw.world.links


class TestChurnInjection:
    def test_churn_cycles_and_wipes_buffers(self):
        # Nodes out of range: buffered messages sit still until churned away.
        mw = build_micro_world(points=APART, sim_time=50.0)
        mw.router(0).create_message(make_message(source=0, destination=1))
        plan = FaultPlan(
            churn_fraction=1.0, churn_off_time=10.0, churn_on_time=10.0
        )
        injector = FaultInjector(mw.world, plan, np.random.default_rng(3))
        injector.start()
        mw.sim.run()

        assert injector.churned_nodes == (0, 1)
        # Counters flow through the fault.injected topic into metrics.
        assert mw.metrics.faults_by_kind[KIND_NODE_DOWN] >= 2
        assert mw.metrics.faults_by_kind[KIND_NODE_UP] >= 1
        # The reboot lost node 0's buffered copy, under the fault reason.
        assert mw.metrics.drops_by_reason.get("fault", 0) >= 1
        assert len(mw.nodes[0].buffer) == 0

    def test_wipe_can_be_disabled(self):
        mw = build_micro_world(points=APART, sim_time=50.0)
        mw.router(0).create_message(make_message(source=0, destination=1))
        plan = FaultPlan(
            churn_fraction=1.0, churn_off_time=10.0, churn_on_time=10.0,
            churn_wipe_buffer=False,
        )
        injector = FaultInjector(mw.world, plan, np.random.default_rng(3))
        injector.start()
        mw.sim.run()
        assert "fault" not in mw.metrics.drops_by_reason
        assert "M1" in mw.nodes[0].buffer

    def test_zero_fraction_rounds_to_no_churn(self):
        mw = build_micro_world(points=APART, sim_time=20.0)
        plan = FaultPlan(churn_fraction=0.1, churn_off_time=5.0,
                         churn_on_time=5.0)  # round(0.1 * 2) == 0 nodes
        injector = FaultInjector(mw.world, plan, np.random.default_rng(0))
        injector.start()
        mw.sim.run()
        assert injector.churned_nodes == ()
        assert mw.metrics.faults_by_kind == {}


class TestLinkFlaps:
    def test_flaps_are_counted_and_links_recover(self):
        mw = build_micro_world(points=LINKED, sim_time=100.0)
        plan = FaultPlan(link_flap_rate=0.2)
        injector = FaultInjector(mw.world, plan, np.random.default_rng(7))
        injector.start()
        mw.sim.run()
        assert mw.metrics.faults_by_kind[KIND_LINK_FLAP] >= 1
        # Both endpoints stayed healthy, so the final tick re-formed the link.
        assert (0, 1) in mw.world.links


class TestTransferFaults:
    def test_certain_fault_blocks_all_deliveries(self):
        mw = build_micro_world(points=LINKED, sim_time=100.0)
        plan = FaultPlan(transfer_fault_prob=1.0)
        injector = FaultInjector(mw.world, plan, np.random.default_rng(1))
        injector.start()
        mw.router(0).create_message(make_message(source=0, destination=1))
        mw.sim.run()

        assert mw.metrics.faults_by_kind[KIND_TRANSFER_FAULT] >= 1
        assert mw.metrics.delivered == 0
        assert mw.metrics.relayed == 0
        assert "M1" not in mw.nodes[1].buffer
        # Two-phase split: no spray tokens were committed by failed sends.
        assert total_copies_in_network(mw, "M1") == 16
        # The sender kept retrying (each completion failed and re-queued), so
        # at most its own in-flight retry remains at the horizon.
        assert mw.transfer_manager.active_count <= 1

    def test_zero_probability_never_consults_rng(self):
        mw = build_micro_world(points=LINKED, sim_time=60.0)
        plan = FaultPlan(churn_fraction=0.0, transfer_fault_prob=0.0)
        injector = FaultInjector(mw.world, plan, np.random.default_rng(1))
        injector.start()
        assert mw.transfer_manager.fault_model is None


class TestScriptedEvents:
    def test_node_events_fire_at_their_exact_times(self):
        mw = build_micro_world(points=LINKED, sim_time=30.0)
        plan = FaultPlan(events=(
            FaultEvent(time=5.0, kind="node_down", node=0),
            FaultEvent(time=12.0, kind="node_up", node=0),
        ))
        injector = FaultInjector(mw.world, plan, np.random.default_rng(0))
        injector.start()
        downs, ups = [], []
        mw.sim.listeners.subscribe(
            "fault.injected",
            lambda kind, t: (downs if kind == "node_down" else ups).append(t),
        )
        mw.sim.run(until=10.0)
        assert downs == [5.0] and ups == []
        assert mw.world.links == set()
        mw.sim.run()
        assert ups == [12.0]
        assert (0, 1) in mw.world.links  # re-formed after the up event

    def test_scripted_down_wipes_per_plan_flag(self):
        for wipe, expected in ((True, 0), (False, 1)):
            mw = build_micro_world(points=APART, sim_time=20.0)
            mw.router(0).create_message(make_message(source=0, destination=1))
            plan = FaultPlan(
                churn_wipe_buffer=wipe,
                events=(FaultEvent(time=5.0, kind="node_down", node=0),),
            )
            injector = FaultInjector(mw.world, plan, np.random.default_rng(0))
            injector.start()
            mw.sim.run()
            assert len(mw.nodes[0].buffer) == expected

    def test_scripted_flap_picks_a_link_deterministically(self):
        mw = build_micro_world(points=LINKED, sim_time=30.0)
        plan = FaultPlan(events=(
            FaultEvent(time=5.0, kind="link_flap", node=7),
        ))
        injector = FaultInjector(mw.world, plan, np.random.default_rng(0))
        injector.start()
        flaps = []
        mw.sim.listeners.subscribe(
            "fault.injected", lambda kind, t: flaps.append((kind, t))
        )
        mw.sim.run()
        # One link, any index selects it modulo the link-set size.
        assert flaps == [(KIND_LINK_FLAP, 5.0)]
        assert (0, 1) in mw.world.links  # healthy endpoints re-form

    def test_scripted_transfer_fault_truncates_the_next_completion(self):
        mw = build_micro_world(points=LINKED, sim_time=100.0)
        plan = FaultPlan(events=(
            FaultEvent(time=0.0, kind="transfer_fault"),
        ))
        injector = FaultInjector(mw.world, plan, np.random.default_rng(0))
        injector.start()
        assert mw.transfer_manager.fault_model is injector
        mw.router(0).create_message(make_message(source=0, destination=1))
        mw.sim.run()
        # Exactly the first completion was truncated; the retry succeeded.
        assert mw.metrics.faults_by_kind[KIND_TRANSFER_FAULT] == 1
        assert injector._scripted_transfer_consumed == 1
        assert mw.metrics.delivered == 1

    def test_scripted_only_plan_never_touches_the_rng(self):
        mw = build_micro_world(points=LINKED, sim_time=60.0)
        plan = FaultPlan(events=(
            FaultEvent(time=2.0, kind="link_flap", node=0),
            FaultEvent(time=5.0, kind="node_down", node=0),
            FaultEvent(time=9.0, kind="node_up", node=0),
            FaultEvent(time=20.0, kind="transfer_fault"),
        ))
        rng = np.random.default_rng(123)
        injector = FaultInjector(mw.world, plan, rng)
        injector.start()
        mw.router(0).create_message(make_message(source=0, destination=1))
        mw.sim.run()
        assert mw.metrics.faults_by_kind  # the schedule did fire
        # Bit-exact RNG state: scripted events made no draw, so a shrunk
        # reproducer replays the surviving schedule identically.
        assert (
            rng.bit_generator.state
            == np.random.default_rng(123).bit_generator.state
        )


class TestWipeDuringTransfer:
    def test_wipe_mid_transfer_keeps_invariants(self):
        # Node 0 goes down (with a buffer wipe) while its transfer to node 1
        # is in flight.  The link teardown aborts the transfer and releases
        # the pin before the wipe runs; the armed sanitizer then proves no
        # pin leaked, no spray token was double-counted and the world's
        # links matched the neighbor maps on every tick.
        mw = build_micro_world(points=LINKED, sim_time=40.0)
        sanitizer = Sanitizer(mw.world)
        sanitizer.subscribe(mw.sim)
        plan = FaultPlan(events=(
            FaultEvent(time=5.0, kind="node_down", node=0),
            FaultEvent(time=10.0, kind="node_up", node=0),
        ))
        injector = FaultInjector(mw.world, plan, np.random.default_rng(0))
        injector.start()
        mw.router(0).create_message(make_message(source=0, destination=1))

        mw.sim.run(until=4.0)
        assert mw.transfer_manager.active_count == 1, (
            "no transfer in flight at the down event; test is vacuous"
        )
        mw.sim.run()

        assert sanitizer.ticks_checked > 0
        assert mw.metrics.drops_by_reason.get("fault", 0) >= 1
        for node in mw.nodes:
            assert not list(node.buffer.pinned_ids())
        assert total_copies_in_network(mw, "M1") <= 16


class TestLifecycle:
    def test_double_start_raises(self):
        mw = build_micro_world(points=LINKED, sim_time=10.0)
        injector = FaultInjector(
            mw.world, FaultPlan(link_flap_rate=0.1), np.random.default_rng(0)
        )
        injector.start()
        with pytest.raises(FaultInjectionError):
            injector.start()

    def test_conflicting_fault_model_raises(self):
        mw = build_micro_world(points=LINKED, sim_time=10.0)
        plan = FaultPlan(transfer_fault_prob=0.5)
        first = FaultInjector(mw.world, plan, np.random.default_rng(0))
        first.start()
        second = FaultInjector(mw.world, plan, np.random.default_rng(1))
        with pytest.raises(FaultInjectionError):
            second.start()
