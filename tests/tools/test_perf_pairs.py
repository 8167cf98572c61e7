"""tools/perf_pairs.py: the parent side's result files name their commit,
the result directory holds one invocation's pairs, and each pair's
calibration times are reported."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

_PATH = Path(__file__).resolve().parents[2] / "tools" / "perf_pairs.py"
_spec = importlib.util.spec_from_file_location("perf_pairs", _PATH)
assert _spec is not None and _spec.loader is not None
perf_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(perf_pairs)


def test_stamp_provenance_records_the_parent_commit():
    # What run.py writes when it runs outside a git repository.
    result = {
        "provenance": {"git_sha": "unknown", "git_dirty": "unknown", "seed": 1},
        "workloads": {"fleet-10k": {"failed": 0}},
    }
    sha = "0123456789abcdef0123456789abcdef01234567"
    stamped = perf_pairs.stamp_provenance(result, sha)
    assert stamped["provenance"] == {"git_sha": sha, "git_dirty": False, "seed": 1}
    assert stamped["workloads"] == {"fleet-10k": {"failed": 0}}


def test_clear_deletes_every_pair_file_and_nothing_else(tmp_path):
    # A 10-pair run's files, as a 3-pair run finds them.
    for pair in range(10):
        for side in ("parent", "change"):
            (tmp_path / f"{pair}-{side}.json").write_text("{}")
    keep = ["notes.txt", "baseline.json", "3-parent.json.bak", "x-change.json"]
    for name in keep:
        (tmp_path / name).write_text("")
    perf_pairs.clear(tmp_path)
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(keep)


def write_result(path, kernels):
    """A result file whose workloads carry these unscaled kernel medians
    (wall medians are ten times the kernel)."""
    workloads = {
        name: {"unscaled": {
            "wall_s": {"value": 10 * kernel},
            "kernel_s": {"value": kernel},
            "setup_s": {"value": 1.0},
        }}
        for name, kernel in kernels.items()
    }
    path.write_text(json.dumps({"provenance": {}, "workloads": workloads}))
    return path


def test_calibration_table_lists_each_pairs_unscaled_medians(tmp_path):
    pairs = [
        (write_result(tmp_path / "0-parent.json", {"a": 0.005, "b": 0.006}),
         write_result(tmp_path / "0-change.json", {"a": 0.007, "b": 0.008})),
        (write_result(tmp_path / "1-parent.json", {"a": 0.0051, "b": 0.0061}),
         write_result(tmp_path / "1-change.json", {"a": 0.0071})),
    ]
    header, *rows = perf_pairs.calibration_table(pairs)
    assert header.split() == [
        "workload", "pair", "parent", "kernel_s", "change", "kernel_s",
        "parent", "wall_s", "change", "wall_s",
    ]
    cells = [row.split() for row in rows]
    assert cells == [
        ["a", "0", "0.005", "0.007", "0.05", "0.07"],
        ["a", "1", "0.0051", "0.0071", "0.051", "0.071"],
        ["b", "0", "0.006", "0.008", "0.06", "0.08"],
        # The change side ran no workload "b" in pair 1.
        ["b", "1", "0.0061", "-", "0.061", "-"],
    ]
