"""Fixture-backed tests: every REP rule fires on its fixture and stays quiet
on clean code.

Fixtures live in ``lint_fixtures/`` (a directory name the runner always
skips, so the deliberate violations never fail the repo-wide lint); tests
read them from disk and lint them under *virtual* paths to exercise the
rules' path scoping.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from reprolint import lint_source

FIXTURES = Path(__file__).parent / "lint_fixtures"


def fixture(name: str) -> str:
    return (FIXTURES / name).read_text(encoding="utf-8")


def codes(violations) -> list[str]:
    return [v.code for v in violations]


# -- REP001: ambient RNG -----------------------------------------------------


def test_rep001_flags_all_ambient_rng_in_src():
    out = lint_source(
        fixture("rep001_ambient_rng.py"), "src/repro/policies/bad.py",
        codes=["REP001"],
    )
    assert codes(out) == ["REP001"] * 5
    messages = " ".join(v.message for v in out)
    assert "stdlib `random`" in messages
    assert "np.random.seed" in messages
    assert "default_rng" in messages
    assert "ambient global" in messages


def test_rep001_allows_seeded_default_rng_in_tests():
    out = lint_source(
        fixture("rep001_ambient_rng.py"), "tests/somewhere/test_bad.py",
        codes=["REP001"],
    )
    # The explicit default_rng(7) construction is fine in tests; the stdlib
    # imports and ambient draws are still banned.
    assert codes(out) == ["REP001"] * 4
    assert not any("default_rng" in v.message for v in out)


def test_rep001_quiet_on_generator_parameters():
    src = "def f(rng):\n    return rng.random()\n"
    assert lint_source(src, "src/repro/policies/x.py", codes=["REP001"]) == []


# -- REP002: wall clock ------------------------------------------------------


def test_rep002_flags_wall_clock_in_sim_code():
    out = lint_source(
        fixture("rep002_wall_clock.py"), "src/repro/engine/bad.py",
        codes=["REP002"],
    )
    assert codes(out) == ["REP002"] * 4
    assert not any("perf_counter" in v.message for v in out)


def test_rep002_scoped_to_src_repro():
    out = lint_source(
        fixture("rep002_wall_clock.py"), "benchmarks/bench_bad.py",
        codes=["REP002"],
    )
    assert out == []


# -- REP003: sim-time equality -----------------------------------------------


def test_rep003_flags_time_equality():
    out = lint_source(
        fixture("rep003_time_equality.py"), "src/repro/net/bad.py",
        codes=["REP003"],
    )
    assert codes(out) == ["REP003"] * 3


def test_rep003_scoped_to_src():
    out = lint_source(
        fixture("rep003_time_equality.py"), "tests/test_bad.py",
        codes=["REP003"],
    )
    assert out == []


def test_rep003_allows_none_and_ordering():
    src = (
        "def f(now, started_at):\n"
        "    if started_at == None:\n"
        "        return False\n"
        "    return now >= started_at\n"
    )
    assert lint_source(src, "src/repro/net/x.py", codes=["REP003"]) == []


# -- REP004: mutable defaults ------------------------------------------------


def test_rep004_flags_mutable_defaults():
    out = lint_source(
        fixture("rep004_mutable_default.py"), "src/repro/world/bad.py",
        codes=["REP004"],
    )
    assert codes(out) == ["REP004"] * 3
    assert all("mutable default" in v.message for v in out)


def test_rep004_applies_everywhere():
    src = "def f(xs=[]):\n    return xs\n"
    out = lint_source(src, "tests/test_x.py", codes=["REP004"])
    assert codes(out) == ["REP004"]


# -- REP005: policy registry / drop reasons ----------------------------------


def test_rep005_unregistered_policies_and_literal_reasons():
    out = lint_source(
        fixture("rep005_policy_registry.py"), "src/repro/policies/bad.py",
        codes=["REP005"],
    )
    assert codes(out) == ["REP005"] * 5
    unregistered = [v for v in out if "not registered" in v.message]
    literals = [v for v in out if "string literal" in v.message]
    assert {m for v in unregistered for m in v.message.split() if "Policy" in m or "Leaf" in m}
    assert len(unregistered) == 2
    assert len(literals) == 3
    names = " ".join(v.message for v in unregistered)
    assert "UnregisteredPolicy" in names
    assert "ConcreteLeaf" in names  # transitive subclass via AbstractMid
    assert "AbstractMid" not in names  # abstract classes are exempt
    assert "RegisteredPolicy" not in names


def test_rep005_scoped_to_src():
    out = lint_source(
        fixture("rep005_policy_registry.py"), "tests/test_bad.py",
        codes=["REP005"],
    )
    assert out == []


# -- REP006: swallowed exceptions --------------------------------------------


def test_rep006_flags_swallowed_exceptions():
    out = lint_source(
        fixture("rep006_swallowed.py"), "src/repro/engine/bad.py",
        codes=["REP006"],
    )
    assert codes(out) == ["REP006"] * 3
    messages = " ".join(v.message for v in out)
    assert "bare" in messages
    assert "swallowed" in messages


@pytest.mark.parametrize("path", [
    "src/repro/net/bad.py",
    "src/repro/parallel/bad.py",
])
def test_rep006_covers_net_and_parallel(path):
    out = lint_source(fixture("rep006_swallowed.py"), path, codes=["REP006"])
    assert len(out) == 3


def test_rep006_scoped_to_failure_critical_dirs():
    out = lint_source(
        fixture("rep006_swallowed.py"), "src/repro/reports/bad.py",
        codes=["REP006"],
    )
    assert out == []


# -- REP008: pickled simulator state -----------------------------------------


def test_rep008_flags_pickle_and_marshal_in_src():
    out = lint_source(
        fixture("rep008_pickle.py"), "src/repro/experiments/bad.py",
        codes=["REP008"],
    )
    # 3 import-form violations + 2 attribute-call violations.
    assert codes(out) == ["REP008"] * 5
    messages = " ".join(v.message for v in out)
    assert "repro.snapshot" in messages
    assert "pickle" in messages
    assert "marshal" in messages


def test_rep008_allows_snapshot_package_its_own_encoding():
    out = lint_source(
        fixture("rep008_pickle.py"), "src/repro/snapshot/codec.py",
        codes=["REP008"],
    )
    assert out == []


def test_rep008_scoped_to_src():
    out = lint_source(
        fixture("rep008_pickle.py"), "tests/test_bad.py", codes=["REP008"]
    )
    assert out == []


# -- REP009: swallowed InvariantViolation ------------------------------------


def test_rep009_flags_swallowing_and_rewrapping():
    out = lint_source(
        fixture("rep009_swallowed_invariant.py"), "src/repro/engine/bad.py",
        codes=["REP009"],
    )
    # 4 swallow forms (direct, broad, tuple, bare) + 1 re-wrap.
    assert codes(out) == ["REP009"] * 5
    messages = " ".join(v.message for v in out)
    assert "bare except" in messages
    assert "InvariantViolation" in messages


def test_rep009_flags_exactly_the_marked_handlers():
    # Every violation points at a line carrying a "# REP009" marker, and
    # every marker is hit — so the fine_* handlers (re-raise, narrow catch)
    # all pass.
    source_lines = fixture("rep009_swallowed_invariant.py").splitlines()
    marked = {
        i for i, text in enumerate(source_lines, start=1) if "# REP009" in text
    }
    out = lint_source(
        fixture("rep009_swallowed_invariant.py"), "src/repro/engine/bad.py",
        codes=["REP009"],
    )
    assert {v.line for v in out} == marked


@pytest.mark.parametrize("path", [
    "src/repro/chaos/runner.py",
    "src/repro/chaos/fuzzer.py",
    "src/repro/experiments/runner.py",
    "src/repro/experiments/sweep.py",
])
def test_rep009_allows_designated_failure_boundaries(path):
    out = lint_source(
        fixture("rep009_swallowed_invariant.py"), path, codes=["REP009"]
    )
    assert out == []


def test_rep009_scoped_to_src_repro():
    for path in ("tests/chaos/test_x.py", "tools/somewhere.py"):
        out = lint_source(
            fixture("rep009_swallowed_invariant.py"), path, codes=["REP009"]
        )
        assert out == []


# -- REP010: ambient sleep ---------------------------------------------------


def test_rep010_flags_ambient_sleeps_in_library_code():
    out = lint_source(
        fixture("rep010_sleep.py"), "src/repro/experiments/runner.py",
        codes=["REP010"],
    )
    # Two time.sleep() calls + the `from time import sleep`; the bare
    # time.sleep *reference* (injectable default) is deliberately quiet.
    assert codes(out) == ["REP010"] * 3
    messages = " ".join(v.message for v in out)
    assert "injectable sleep" in messages


def test_rep010_marks_exactly_the_marked_lines():
    source_lines = fixture("rep010_sleep.py").splitlines()
    marked = {
        i for i, text in enumerate(source_lines, start=1) if "# REP010" in text
    }
    out = lint_source(
        fixture("rep010_sleep.py"), "src/repro/engine/bad.py",
        codes=["REP010"],
    )
    assert {v.line for v in out} == marked


@pytest.mark.parametrize("path", [
    "src/repro/service/api.py",
    "src/repro/service/supervisor.py",
    "src/repro/experiments/sweep.py",
])
def test_rep010_allows_the_sanctioned_pacing_sites(path):
    out = lint_source(fixture("rep010_sleep.py"), path, codes=["REP010"])
    assert out == []


def test_rep010_scoped_to_src_repro():
    for path in ("tests/service/test_x.py", "tools/smoke.py",
                 "benchmarks/bench_x.py"):
        out = lint_source(fixture("rep010_sleep.py"), path, codes=["REP010"])
        assert out == []


def test_rep009_allows_the_service_boundary():
    out = lint_source(
        fixture("rep009_swallowed_invariant.py"),
        "src/repro/service/supervisor.py",
        codes=["REP009"],
    )
    assert out == []


# -- the clean fixture passes everything -------------------------------------


def test_clean_fixture_has_no_violations():
    out = lint_source(fixture("clean_module.py"), "src/repro/policies/clean.py")
    assert out == []
