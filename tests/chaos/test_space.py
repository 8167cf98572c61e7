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

    def test_both_engine_backends_are_sampled(self):
        space = ChaosSpace(engine_backends=("scalar", "hybrid"))
        backends = {sample_case(space, 6, i).engine_backend for i in range(30)}
        assert backends == {"scalar", "hybrid"}

    def test_backend_axis_can_be_restricted(self):
        space = fast_space(engine_backends=("analytic",))
        for i in range(10):
            assert sample_case(space, 2, i).engine_backend == "analytic"

    def test_backend_draw_does_not_shift_earlier_axes(self):
        """The backend is drawn after every classic axis: widening it to the
        analytic backends must leave each case's earlier draws unchanged,
        so the default space keeps its (seed, index) -> case mapping.
        Analytic draws are then coerced into the mean-field envelope,
        which may replace the router, mobility, faults, sanitizer and
        trace; those fields are compared on scalar draws only."""
        default = ChaosSpace()
        wide = ChaosSpace(engine_backends=("scalar", "analytic", "hybrid"))
        # The shard axes are drawn later still and only on the scalar
        # path, so they are normalized out on both sides.
        unsharded = dict(shard_count=1, shard_kill=None)
        coerced = dict(
            engine_backend="scalar", router="snw", mobility="rwp",
            faults=None, sanitize=True, trace_capacity=0, **unsharded,
        )
        saw = set()
        for i in range(20):
            a = sample_case(wide, 4, i)
            b = sample_case(default, 4, i)
            saw.add(a.engine_backend)
            if a.engine_backend == "scalar":
                assert a.replace(**unsharded) == b.replace(**unsharded)
            else:
                assert a.replace(**coerced) == b.replace(**coerced)
        assert saw == {"scalar", "analytic", "hybrid"}

    def test_shard_draw_does_not_shift_earlier_axes(self):
        """The shard axes are drawn last (after the backend): disabling
        them must reproduce every earlier field exactly — the same
        corpus-stability discipline the backend axis followed."""
        wide = ChaosSpace()
        narrow = ChaosSpace(shard_counts=(1,))
        for i in range(20):
            a = sample_case(wide, 4, i).replace(
                shard_count=1, shard_kill=None
            )
            b = sample_case(narrow, 4, i)
            assert a == b

    def test_shard_axis_samples_valid_cases(self):
        """Sharded draws construct (validation allows them) and the kill
        barrier is always in range; analytic cases never shard."""
        space = ChaosSpace(
            shard_counts=(2, 4), shard_kill_prob=1.0,
            engine_backends=("scalar", "hybrid"),
        )
        saw_sharded = saw_unsharded = False
        for i in range(20):
            case = sample_case(space, 11, i)
            if case.engine_backend != "scalar":
                saw_unsharded = True
                assert case.shard_count == 1 and case.shard_kill is None
                continue
            saw_sharded = True
            assert case.shard_count in (2, 4)
            assert case.shard_kill is not None
            shard_id, barrier_seq = case.shard_kill
            assert 0 <= shard_id < case.shard_count
            assert barrier_seq >= 1
        assert saw_sharded and saw_unsharded


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
