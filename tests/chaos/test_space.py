"""Chaos search space: determinism, range discipline, fault-plan sampling."""

from __future__ import annotations

from repro.chaos.space import ChaosSpace, describe_case, sample_case
from repro.rng import derive_seed
from tests.chaos.conftest import fast_space


class TestDeterminism:
    def test_same_seed_and_index_is_the_same_case(self):
        space = ChaosSpace()
        assert sample_case(space, 7, 3) == sample_case(space, 7, 3)

    def test_cases_vary_across_indices(self):
        space = ChaosSpace()
        cases = [sample_case(space, 7, i) for i in range(10)]
        assert len({c.seed for c in cases}) == 10
        assert len({(c.router, c.policy, c.n_nodes) for c in cases}) > 1

    def test_seed_is_derived_from_base_and_index(self):
        case = sample_case(ChaosSpace(), 42, 5)
        assert case.seed == derive_seed(42, "chaos", 5)
        assert case.name == "chaos-5"


class TestRanges:
    def test_every_draw_respects_the_space(self):
        space = ChaosSpace()
        for i in range(30):
            case = sample_case(space, 1, i)
            assert case.router in space.routers
            assert case.policy in space.policies
            assert case.mobility in space.mobilities
            assert space.n_nodes[0] <= case.n_nodes <= space.n_nodes[1]
            assert space.sim_time[0] <= case.sim_time <= space.sim_time[1]
            assert case.ttl in space.ttl_choices
            assert case.initial_copies in space.copies_choices
            lo, hi = case.interval_range
            assert space.interval_lo[0] <= lo <= space.interval_lo[1]
            assert lo < hi
            k = case.buffer_bytes // space.message_size
            assert space.buffer_messages[0] <= k <= space.buffer_messages[1]

    def test_cases_are_sanitizer_armed_and_traced(self):
        case = sample_case(ChaosSpace(), 3, 0)
        assert case.sanitize
        assert case.trace_capacity > 0

    def test_restricted_space_is_respected(self):
        space = fast_space()
        for i in range(10):
            case = sample_case(space, 2, i)
            assert case.router == "snw"
            assert case.policy == "fifo"


class TestFaultPlans:
    def test_events_are_valid_and_time_sorted(self):
        for i in range(30):
            case = sample_case(ChaosSpace(), 9, i)
            plan = case.faults
            if plan is None or not plan.events:
                continue
            times = [e.time for e in plan.events]
            assert times == sorted(times)
            for event in plan.events:
                assert 0.0 <= event.time <= case.sim_time
                assert 0 <= event.node < case.n_nodes
            # The plan must survive build-time validation as sampled.
            plan.validate_for(case.sim_time, case.n_nodes)

    def test_some_cases_carry_no_faults(self):
        # With per-family probabilities < 1 the space must also produce
        # plain cases (the fuzzer's clean baseline for metamorphic checks).
        plans = [sample_case(ChaosSpace(), 5, i).faults for i in range(40)]
        assert any(p is None for p in plans)
        assert any(p is not None for p in plans)


class TestDescribe:
    def test_one_liner_mentions_the_essentials(self):
        case = sample_case(ChaosSpace(), 1, 4)
        line = describe_case(case)
        assert case.name in line
        assert case.router in line
        assert case.policy in line

    def test_no_fault_case_is_labelled(self):
        case = sample_case(ChaosSpace(), 5, 0).replace(faults=None)
        assert "no-faults" in describe_case(case)
