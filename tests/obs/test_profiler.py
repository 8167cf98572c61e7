"""PhaseProfiler: self-time accounting, nesting, and how the builder
installs it."""

from __future__ import annotations

import time

import pytest

from repro.experiments.runner import build_scenario, run_built
from repro.obs.profiler import PhaseProfiler
from repro.snapshot import restore, save
from tests.obs.conftest import tiny_config


def span(prof, name, body=lambda: None):
    """Run *body* inside a span of phase *name*."""
    return prof.wrap(name, body)()


class TestPhaseProfiler:
    def test_records_phase_and_call_count(self):
        prof = PhaseProfiler()
        span(prof, "movement")
        span(prof, "movement")
        assert prof.calls["movement"] == 2
        assert prof.self_seconds["movement"] >= 0.0

    def test_nested_phases_charge_self_time_only(self):
        """The parent's self time excludes time spent inside the child."""
        prof = PhaseProfiler()
        inner = prof.wrap("inner", lambda: time.sleep(0.02))
        span(prof, "outer", inner)
        assert prof.self_seconds["inner"] >= 0.015
        # Outer did ~nothing itself; the 20 ms belong to inner alone.
        assert prof.self_seconds["outer"] < prof.self_seconds["inner"]
        total = prof.total_seconds()
        assert total == sum(prof.self_seconds.values())

    def test_recursive_same_phase_does_not_double_count(self):
        prof = PhaseProfiler()
        inner = prof.wrap("routing", lambda: time.sleep(0.01))
        span(prof, "routing", inner)
        # Wall time inside was ~10 ms; self-time sum must not exceed the
        # outer elapsed (which it would, doubled, under naive accounting).
        assert prof.self_seconds["routing"] < 0.1
        assert prof.calls["routing"] == 2

    def test_exception_inside_phase_still_closes_frame(self):
        prof = PhaseProfiler()

        def boom():
            raise RuntimeError("boom")

        with pytest.raises(RuntimeError):
            span(prof, "policy", boom)
        assert prof.calls["policy"] == 1
        assert prof._stack == []

    def test_as_dict_is_sorted_and_detached(self):
        prof = PhaseProfiler()
        span(prof, "b")
        span(prof, "a")
        d = prof.as_dict()
        assert list(d) == ["a", "b"]
        d["a"] = 99.0
        assert prof.self_seconds["a"] != 99.0

    def test_table_lists_largest_first(self):
        prof = PhaseProfiler()
        span(prof, "slow", lambda: time.sleep(0.02))
        span(prof, "fast")
        lines = prof.table().splitlines()
        slow_idx = next(i for i, l in enumerate(lines) if "slow" in l)
        fast_idx = next(i for i, l in enumerate(lines) if "fast" in l)
        assert slow_idx < fast_idx


class TestWrap:
    def test_wrapper_passes_arguments_and_result_through(self):
        prof = PhaseProfiler()
        add = prof.wrap("transfer", lambda a, b=0: a + b)
        assert add(2, b=3) == 5
        assert prof.calls == {"transfer": 1}


#: The phases the profiler reported for ``tiny_config`` before it moved out
#: of the simulator's modules, with and without the sanitizer.
PHASES = {
    "contacts", "links", "movement", "observers", "policy", "routing",
    "traffic", "transfer",
}


def stack_objects(built):
    """Every object of a built stack whose methods a profiler could wrap."""
    world = built.world
    objects = [
        built.sim, built.sim.listeners, world, world.mobility, world.due,
        world.detector, world.transfer_manager, built.generator,
    ]
    for node in built.nodes:
        objects += [node, node.buffer, node.router, node.router.policy]
    return objects


class TestInstall:
    def test_a_plain_run_shadows_no_method(self):
        built = build_scenario(tiny_config())
        for obj in stack_objects(built):
            cls = type(obj)
            shadowed = [
                name for name in vars(obj)
                if callable(getattr(cls, name, None))
            ]
            assert shadowed == [], f"{cls.__name__} shadows {shadowed}"

    @pytest.mark.parametrize("sanitize", [False, True], ids=["plain", "sanitized"])
    def test_a_profiled_run_reports_every_phase(self, sanitize):
        built = build_scenario(tiny_config(profile=True, sanitize=sanitize))
        summary = run_built(built)
        assert set(summary.profile) == PHASES
        assert built.profiler._stack == []

    def test_a_restored_profiled_run_keeps_counting_phases(self):
        config = tiny_config(profile=True)
        built = build_scenario(config)
        built.sim.run(until=config.sim_time / 2)
        snap = save(built)
        restored = restore(snap)
        calls = dict(restored.profiler.calls)
        assert calls == snap.state["profiler"]["calls"]
        run_built(restored)
        after = restored.profiler.calls
        assert set(after) == PHASES
        assert all(after[name] > calls.get(name, 0) for name in
                   ("movement", "contacts", "links", "routing", "observers"))
