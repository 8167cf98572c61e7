"""tools/perf_pairs.py: the parent side's result files name their commit,
and the result directory holds one invocation's pairs."""

from __future__ import annotations

import importlib.util
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
