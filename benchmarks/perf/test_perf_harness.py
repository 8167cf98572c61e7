"""Self-test of the perf benchmark harness (not part of tier-1).

    PYTHONPATH=src python -m pytest benchmarks/perf -q

Runs the harness on a tiny scenario (12 nodes, 200 s), so the whole file
takes well under a minute.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys

import pytest

import compare
import run
import worker
from workloads import SELFTEST, instance_seed

SPEC = run.load_spec()
SEED = instance_seed(1, 0)
ARGS = ["--workload", SELFTEST, "--seconds", "3"]


def _main(argv, expected_dir):
    """run.main with its stdout captured: (exit code, last-line JSON)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(argv, expected_dir=expected_dir)
    return code, json.loads(out.getvalue().strip().splitlines()[-1])


@pytest.fixture(scope="module")
def recorded(tmp_path_factory):
    """One full invocation that also records the expected summaries."""
    root = tmp_path_factory.mktemp("perf")
    result_path = root / "result.json"
    code, line = _main(
        [*ARGS, "--write-expected", "--out", str(result_path)], root / "expected"
    )
    return code, line, json.loads(result_path.read_text()), root / "expected"


@pytest.fixture(scope="module")
def traced():
    return worker.run_instance(SELFTEST, SEED, "traced")


def test_every_declared_metric_is_emitted_with_its_unit(recorded):
    code, line, result, _ = recorded
    assert code == 0
    assert line["correct"] and line["failed"] == 0 and line["attempted"] > 0
    declared = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in line["metrics"].items()} == declared
    for kind in ("end_to_end", "per_layer"):
        emitted = result["workloads"][SELFTEST][kind]
        assert {k: v["unit"] for k, v in emitted.items()} == {
            m["name"]: m["unit"] for m in SPEC[kind]
        }
    provenance = result["provenance"]
    assert provenance["seed"] == 1 and provenance["cpu_count"] >= 1
    assert {"git_sha", "git_dirty", "python", "numpy", "scipy"} <= set(provenance)


def test_count_metrics_repeat_exactly(recorded, traced):
    # The traced child of the recorded invocation ran the same instance.
    per_layer = recorded[2]["workloads"][SELFTEST]["per_layer"]
    counts = [m["name"] for m in SPEC["per_layer"] if m["unit"] in ("count", "ratio")]
    assert counts
    for name in counts:
        assert per_layer[name]["value"] == traced["layers"][name], name


def test_traced_and_profiled_summaries_equal_the_plain_one(traced):
    plain = worker.run_instance(SELFTEST, SEED, "plain")
    profiled = worker.run_instance(SELFTEST, SEED, "profiled")
    assert traced["summary"] == plain["summary"] == profiled["summary"]


def test_self_times_fit_in_the_traced_wall_time(traced):
    layers = traced["layers"]
    # policies.priority.self_s re-adds two wrappers' self times.
    self_total = sum(
        v for k, v in layers.items()
        if k.endswith(".self_s") and k != "policies.priority.self_s"
    )
    assert 0 < self_total <= traced["wall_s"]
    assert 0 < layers["bench.trace_coverage"] <= 1


def test_tampered_expected_summary_fails_the_run(recorded, tmp_path):
    expected_dir = tmp_path / "expected"
    shutil.copytree(recorded[3], expected_dir)
    path = expected_dir / f"{SELFTEST}.json"
    data = json.loads(path.read_text())
    # Instance 1 runs once; instance 0 runs twice (determinism repeat).
    data["summaries"][str(instance_seed(1, 1))]["created"] += 1
    path.write_text(json.dumps(data))
    code, line = _main([*ARGS, "--trace", "0"], expected_dir)
    assert code != 0
    assert line["failed"] == 1 and not line["correct"]


def test_refuses_to_run_without_the_simulator(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "benchmarks" / "perf")
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "benchmarks/perf/run.py", "--workload", "taxi-200"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""


@pytest.mark.parametrize("a, b, want", [
    ([10.0], [10.5], "within"),
    ([10.0], [12.5], "worse"),
    ([10.0, 13.0, 7.0], [10.0, 10.1, 9.9], "unresolved"),
    ([10.0, 13.0, 7.0], [6.0, 6.5, 5.5], "within"),  # B beats every A run
    ([10.0, 10.1, 9.9], [8.0, 8.1, 7.9], "within"),  # a gain needs 10 pairs
    ([10.0, 10.1, 9.9] * 4, [8.0, 8.1, 7.9] * 4, "better"),
    ([10.0, 10.1, 9.9] * 4, [8.0, 8.1, 10.5] * 4, "within"),  # B wins 8 in 12
])
def test_compare_verdicts(a, b, want):
    assert compare.verdict(a, b, "lower", 0.2)[0] == want
