"""Classic-runner robustness: a broken file is reported, never skipped."""

from __future__ import annotations

from pathlib import Path

from reprolint.runner import LintStats, lint_paths


def _write_tree(tmp_path: Path) -> Path:
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "clean.py").write_text("def f(x):\n    return x\n", encoding="utf-8")
    (pkg / "bad.py").write_text("def g(xs=[]):\n    return xs\n", encoding="utf-8")
    return pkg


def test_non_utf8_file_becomes_rep000_and_does_not_hide_others(tmp_path):
    pkg = _write_tree(tmp_path)
    (pkg / "binary.py").write_bytes(b"x = '\xff\xfe'\n")
    out = lint_paths([pkg], root=tmp_path)
    codes = sorted(v.code for v in out)
    assert "REP000" in codes and "REP004" in codes
    broken = [v for v in out if v.code == "REP000"]
    assert "not valid UTF-8" in broken[0].message


def test_broken_files_are_never_cached_as_clean(tmp_path):
    pkg = _write_tree(tmp_path)
    (pkg / "binary.py").write_bytes(b"x = '\xff\xfe'\n")
    lint_paths([pkg], root=tmp_path)

    stats = LintStats()
    out = lint_paths([pkg], root=tmp_path, stats=stats)
    assert [v.code for v in out if v.code == "REP000"], (
        "REP000 must persist on a second run"
    )
    assert stats.broken_files == 1
