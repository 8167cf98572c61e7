"""Deep-rule behaviour pinned against the fixture mini-packages.

Each fixture root under ``fixtures/deep/`` is a miniature repo (``src/repro``
layout) holding, per rule family, a true positive, a compliant twin of the
same shape (true negative) and an inline-suppressed site.  Tests pin the
*exact* finding sets so a precision or recall regression in any rule fails
loudly with the offending function name in the diff.
"""

from __future__ import annotations

import ast
import json
from pathlib import Path

from reprolint.deep import analyze, main
from reprolint.deep.baseline import load_baseline, apply_baseline
from reprolint.deep.cli import DEFAULT_BASELINE
from reprolint.deep.project import load_project

HERE = Path(__file__).parent
FIXTURES = HERE / "fixtures" / "deep"
REPO_ROOT = HERE.parents[1]


def run_fixture(name: str, code: str):
    return analyze(FIXTURES / name, codes=[code])


def messages(findings) -> str:
    return "\n".join(f.message for f in findings)


# -- REP101: RNG provenance ---------------------------------------------------


def test_rep101_flags_exactly_the_bad_rng_sites():
    result = run_fixture("rep101", "REP101")
    assert not result.broken
    active = messages(result.findings)
    for bad in (
        "bad_literal_factory",
        "bad_ambient",
        "bad_untraceable",
        "bad_shared_loop",
        "run_underived",
    ):
        assert active.count(bad) == 1, f"expected one finding for {bad}"
    assert len(result.findings) == 5
    assert "good_" not in active and "GoodRouter" not in active


def test_rep101_suppression_is_matched_and_counted():
    result = run_fixture("rep101", "REP101")
    assert len(result.suppressed) == 1
    assert "suppressed_literal" in result.suppressed[0].message
    assert not result.unused


def test_calls_resolve_through_function_local_imports():
    # `run_local` imports `build_run` in its own body, shadowing the
    # module-level alias of the compliant function: only the local import
    # puts the underived seed on a worker path.
    result = run_fixture("localimport", "REP101")
    assert not result.broken
    assert [f.message.count("repro.build.build_run") for f in result.findings] == [1]


def test_provenance_cycles_terminate():
    # A method reading the attribute it rebinds, and two methods reading
    # each other's attributes, once recursed until RecursionError.
    result = analyze(FIXTURES / "rngcycle")
    assert not result.broken
    assert not result.findings, messages(result.findings)


# -- REP102: order-sensitivity taint -----------------------------------------


def test_rep102_flags_exactly_the_order_sinks():
    result = run_fixture("rep102", "REP102")
    active = messages(result.findings)
    for bad in ("bad_teardown", "bad_materialize", "bad_listing"):
        assert active.count(bad) == 1, f"expected one finding for {bad}"
    assert len(result.findings) == 3
    assert "good_" not in active


def test_rep102_sorted_and_set_accumulation_are_sanitizers():
    result = run_fixture("rep102", "REP102")
    active = messages(result.findings)
    assert "good_teardown" not in active
    assert "good_unordered_accumulation" not in active
    assert "good_listing" not in active


def test_rep102_suppression():
    result = run_fixture("rep102", "REP102")
    assert [f.message for f in result.suppressed if "suppressed_teardown" in f.message]
    assert not result.unused


# -- REP103: snapshot coverage drift -----------------------------------------


def test_rep103_reports_only_the_uncaptured_attribute():
    result = run_fixture("rep103", "REP103")
    assert len(result.findings) == 1
    assert "Counter.missed" in result.findings[0].message
    # `count` is read directly, `_total` through the `total` property: the
    # property-expansion fixpoint must cover both.
    assert "count" not in result.findings[0].message.split("Counter.missed")[0]


def test_rep103_property_expansion_covers_indirect_reads():
    result = run_fixture("rep103", "REP103")
    assert "_total" not in messages(result.findings)


def test_rep103_suppression_at_the_mutation_site():
    result = run_fixture("rep103", "REP103")
    assert len(result.suppressed) == 1
    assert "transient" in result.suppressed[0].message
    assert not result.unused


# -- REP104: observer purity --------------------------------------------------


def test_rep104_flags_foreign_writes_and_mutator_calls():
    result = run_fixture("rep104", "REP104")
    active = messages(result.findings)
    assert len(result.findings) == 2
    assert "sim.tag" in active
    assert "sim.queue.pop" in active
    assert "GoodProbe" not in active


def test_rep104_suppression():
    result = run_fixture("rep104", "REP104")
    assert len(result.suppressed) == 1
    assert "suppressed_touch" in result.suppressed[0].message
    assert not result.unused


# -- suppressions: unused detection ------------------------------------------


def _mini_project(tmp_path: Path, body: str) -> Path:
    mod = tmp_path / "src" / "repro" / "mod.py"
    mod.parent.mkdir(parents=True)
    mod.write_text(body, encoding="utf-8")
    return tmp_path


def test_unused_suppression_reported_as_rep100(tmp_path):
    root = _mini_project(tmp_path, "X = 1  # reprolint: disable=REP102\n")
    result = analyze(root)
    assert not result.findings
    assert [f.code for f in result.unused] == ["REP100"]
    assert "REP102" in result.unused[0].message


def test_fail_on_unused_suppressions_flag(tmp_path, capsys):
    _mini_project(tmp_path, "X = 1  # reprolint: disable=REP102\n")
    argv = ["--root", str(tmp_path), "--no-baseline"]
    assert main(argv) == 0
    assert main(argv + ["--fail-on-unused-suppressions"]) == 1


# -- REP000: broken files ------------------------------------------------------


def test_deep_broken_files_become_rep000(tmp_path):
    pkg = tmp_path / "src" / "repro"
    pkg.mkdir(parents=True)
    (pkg / "bad_syntax.py").write_text("def broken(:\n", encoding="utf-8")
    (pkg / "bad_bytes.py").write_bytes(b"x = '\xff\xfe'\n")
    result = analyze(tmp_path)
    assert sorted(f.code for f in result.broken) == ["REP000", "REP000"]
    texts = messages(result.broken)
    assert "syntax error" in texts
    assert "not valid UTF-8" in texts


def test_deep_cli_fails_on_broken_files(tmp_path, capsys):
    pkg = tmp_path / "src" / "repro"
    pkg.mkdir(parents=True)
    (pkg / "bad.py").write_text("def broken(:\n", encoding="utf-8")
    assert main(["--root", str(tmp_path), "--no-baseline"]) == 1
    out = capsys.readouterr().out
    assert "REP000" in out


# -- fingerprints and reports --------------------------------------------------


def test_fingerprints_survive_line_drift(tmp_path):
    import shutil

    root = tmp_path / "rep102"
    shutil.copytree(FIXTURES / "rep102", root)
    before = {f.fingerprint for f in analyze(root, codes=["REP102"]).findings}
    world = root / "src" / "repro" / "world" / "world.py"
    world.write_text(
        "# a new leading comment shifts every line\n" + world.read_text(),
        encoding="utf-8",
    )
    after = {f.fingerprint for f in analyze(root, codes=["REP102"]).findings}
    assert before == after


def test_sarif_report_shape(tmp_path):
    out = tmp_path / "deep.sarif"
    code = main([
        "--root", str(FIXTURES / "rep104"), "--select", "REP104",
        "--no-baseline", "--sarif", str(out),
    ])
    assert code == 1
    sarif = json.loads(out.read_text(encoding="utf-8"))
    assert sarif["version"] == "2.1.0"
    run = sarif["runs"][0]
    assert run["tool"]["driver"]["name"] == "reprolint-deep"
    results = run["results"]
    assert len(results) == 2
    for entry in results:
        assert entry["ruleId"] == "REP104"
        assert entry["partialFingerprints"]["reprolintDeep/v1"]


def test_json_report_shape(tmp_path):
    out = tmp_path / "deep.json"
    main([
        "--root", str(FIXTURES / "rep103"), "--select", "REP103",
        "--no-baseline", "--json", str(out),
    ])
    payload = json.loads(out.read_text(encoding="utf-8"))
    assert len(payload["findings"]) == 1
    assert payload["findings"][0]["code"] == "REP103"
    assert len(payload["suppressed"]) == 1


def test_explain_prints_rule_documentation(capsys):
    assert main(["--explain", "rep102"]) == 0
    out = capsys.readouterr().out
    assert "REP102" in out and "sorted" in out
    assert main(["--explain", "REP999"]) == 2


# -- the repo's own source must satisfy the committed (empty) baseline --------


def test_src_self_check_against_committed_baseline():
    result = analyze(REPO_ROOT)
    baseline = load_baseline(REPO_ROOT / DEFAULT_BASELINE)
    new, _baselined, stale = apply_baseline(result.findings, baseline)
    assert not result.broken, messages(result.broken)
    assert not new, "src/ must lint deep-clean:\n" + messages(new)
    assert not result.unused, "stale disable comments:\n" + messages(result.unused)
    assert not stale, f"stale baseline entries: {stale}"


def test_committed_baseline_is_empty():
    baseline = load_baseline(REPO_ROOT / DEFAULT_BASELINE)
    assert baseline == {}


def test_router_constructors_are_reachable_from_build_scenario():
    # The call graph follows calls: a router class handed out uncalled, as
    # a factory, would hide its constructor from the worker-path rules.
    project = load_project(REPO_ROOT)
    runner = project.modules["repro.experiments.runner"]
    queue = [runner.functions["build_scenario"]]
    reached: set[str] = set()
    while queue:
        fn = queue.pop()
        if fn.qualname in reached:
            continue
        reached.add(fn.qualname)
        for node in ast.walk(fn.node):
            if isinstance(node, ast.Call):
                callee = project.resolve_call(fn, node)
                if callee is not None:
                    queue.append(callee)
    for router in (
        "spray_and_wait.SprayAndWaitRouter",
        "spray_and_focus.SprayAndFocusRouter",
        "prophet.ProphetRouter",
    ):
        assert f"repro.routing.{router}.__init__" in reached, router
