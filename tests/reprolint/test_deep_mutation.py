"""Mutation checks: the deep rules must catch real regressions in src/.

Each test copies the repo's actual ``src/`` tree, re-introduces a historic
bug class (an unsorted set walk, a dropped snapshot codec field) and
asserts the analyzer reports *exactly* the expected finding — no more, no
less.  This pins the rules to the behaviour-relevant sites they exist to
protect, not just to synthetic fixtures.
"""

from __future__ import annotations

import shutil
from pathlib import Path

import pytest

from reprolint.deep import analyze

HERE = Path(__file__).parent
REPO_SRC = HERE.parents[1] / "src"


@pytest.fixture()
def src_copy(tmp_path: Path) -> Path:
    shutil.copytree(REPO_SRC, tmp_path / "src")
    return tmp_path


def _mutate(root: Path, rel: str, old: str, new: str) -> None:
    target = root / rel
    text = target.read_text(encoding="utf-8")
    assert old in text, f"mutation anchor vanished from {rel}: {old!r}"
    target.write_text(text.replace(old, new, 1), encoding="utf-8")


def test_unmutated_copy_is_clean(src_copy: Path):
    result = analyze(src_copy)
    assert not result.findings, "\n".join(f.message for f in result.findings)


def test_removing_sorted_in_routing_phase_yields_one_rep102(src_copy: Path):
    # The routing phase's retry loop, DueSet.retry, walks the awake ids.
    _mutate(
        src_copy,
        "src/repro/world/world.py",
        "for node_id in sorted(self.awake):",
        "for node_id in self.awake:",
    )
    result = analyze(src_copy)
    assert [f.code for f in result.findings] == ["REP102"]
    finding = result.findings[0]
    assert finding.path == "src/repro/world/world.py"
    assert "repro.world.world.DueSet.retry" in finding.message


def test_dropping_a_snapshot_codec_field_yields_one_rep103(src_copy: Path):
    _mutate(
        src_copy,
        "src/repro/snapshot/capture.py",
        '            "last_aged": router._last_aged,\n',
        "",
    )
    result = analyze(src_copy)
    assert [f.code for f in result.findings] == ["REP103"]
    finding = result.findings[0]
    assert finding.path == "src/repro/routing/prophet.py"
    assert "ProphetRouter._last_aged" in finding.message
