"""File collection and rule driving for reprolint.

Separated from :mod:`reprolint.rules` so tests can lint in-memory sources
(:func:`lint_source`) and fixture trees (:func:`lint_paths`) without going
through the CLI.

Each file is **read and parsed once**, serially; rules share a node-type
index on the :class:`~reprolint.rules.FileContext` instead of re-walking
the tree (see ``docs/static_analysis.md`` for timings).

Robustness: a file that cannot be decoded (non-UTF-8 bytes) or parsed
(syntax error, null bytes) is reported as a structured ``REP000`` finding
and the run continues — one broken file must not hide every other finding.
"""

from __future__ import annotations

import argparse
import ast
import sys
import time
from collections.abc import Iterable, Sequence
from pathlib import Path, PurePosixPath

from reprolint.rules import (
    ALL_RULES,
    FileContext,
    ProjectRule,
    Rule,
    Violation,
)

#: Directory name holding reprolint's own test fixtures (deliberate
#: violations); always skipped so the repo-wide run stays clean.
FIXTURE_DIR = "lint_fixtures"

#: The deep analyzer's fixture mini-packages live under
#: ``tests/reprolint/fixtures/``; like ``lint_fixtures`` they contain
#: deliberate violations and are skipped by path-part pair.
DEEP_FIXTURE_PARTS = ("reprolint", "fixtures")


def _normalize(path: Path, root: Path) -> str:
    """Repo-root-relative POSIX path (falls back to the path as given)."""
    try:
        rel = path.resolve().relative_to(root.resolve())
    except ValueError:
        rel = path
    return str(PurePosixPath(rel))


def _is_fixture(parts: Sequence[str]) -> bool:
    if FIXTURE_DIR in parts:
        return True
    for first, second in zip(parts, parts[1:]):
        if (first, second) == DEEP_FIXTURE_PARTS:
            return True
    return False


def collect_files(paths: Sequence[str | Path], root: Path | None = None) -> list[tuple[str, Path]]:
    """Expand files/directories into ``(normalized_name, real_path)`` pairs."""
    root = root or Path.cwd()
    out: list[tuple[str, Path]] = []
    for raw in paths:
        p = Path(raw)
        candidates = sorted(p.rglob("*.py")) if p.is_dir() else [p]
        for file in candidates:
            if _is_fixture(file.parts):
                continue
            out.append((_normalize(file, root), file))
    return out


def _select_rules(codes: Iterable[str] | None) -> list[Rule]:
    instances = [cls() for cls in ALL_RULES]
    if codes is None:
        return instances
    wanted = {c.upper() for c in codes}
    return [r for r in instances if r.code in wanted]


# -- single-file lint core ---------------------------------------------------


def _broken_file(name: str, line: int, col: int, message: str) -> Violation:
    return Violation(code="REP000", path=name, line=line, col=col, message=message)


def parse_blob(name: str, data: bytes) -> tuple[ast.Module | None, Violation | None]:
    """Decode + parse *data*; broken input becomes a ``REP000`` violation."""
    try:
        source = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        return None, _broken_file(
            name, 0, 0,
            f"file is not valid UTF-8 (byte offset {exc.start}): {exc.reason}",
        )
    try:
        return ast.parse(source, filename=name), None
    except SyntaxError as exc:
        return None, _broken_file(
            name, exc.lineno or 0, exc.offset or 0, f"syntax error: {exc.msg}"
        )
    except ValueError as exc:  # e.g. null bytes in source
        return None, _broken_file(name, 0, 0, f"unparseable source: {exc}")


# -- public entry points -----------------------------------------------------


def lint_source(
    source: str, path: str, codes: Iterable[str] | None = None
) -> list[Violation]:
    """Lint one in-memory source as if it lived at *path* (for tests).

    Project-wide rules (REP005) see only this file, so registry checks run
    against whatever registrations the snippet itself contains.
    """
    rules = _select_rules(codes)
    ctx = FileContext(path=path, tree=ast.parse(source, filename=path))
    violations: list[Violation] = []
    for rule in rules:
        violations.extend(rule.check(ctx))
    for rule in rules:
        if isinstance(rule, ProjectRule):
            violations.extend(rule.finalize())
    return sorted(violations, key=lambda v: (v.path, v.line, v.code))


class LintStats:
    """Counters for one :func:`lint_paths` run (``--stats`` output)."""

    def __init__(self) -> None:
        self.files = 0
        self.broken_files = 0
        self.wall_seconds = 0.0

    def format(self) -> str:
        return (
            f"reprolint: {self.files} file(s)"
            + (f", {self.broken_files} unparseable" if self.broken_files else "")
            + f", {self.wall_seconds:.2f}s"
        )


def _lint_file(name: str, file: Path, rules: Sequence[Rule]) -> list[Violation]:
    """Run *rules* over one file from disk; project rules only collect."""
    try:
        data = file.read_bytes()
    except OSError as exc:
        return [_broken_file(name, 0, 0, f"unreadable file: {exc}")]
    tree, broken = parse_blob(name, data)
    if tree is None:
        return [broken] if broken is not None else []
    ctx = FileContext(path=name, tree=tree)
    violations: list[Violation] = []
    for rule in rules:
        violations.extend(rule.check(ctx))
    return violations


def lint_paths(
    paths: Sequence[str | Path],
    root: Path | None = None,
    codes: Iterable[str] | None = None,
    *,
    stats: LintStats | None = None,
) -> list[Violation]:
    """Lint files/directories; returns all violations, sorted.

    Files are linted in collection order: project-rule state is order-
    dependent (duplicate class names resolve last-wins).
    """
    started = time.perf_counter()
    stats = stats if stats is not None else LintStats()
    rules = _select_rules(codes)
    files = collect_files(paths, root)
    stats.files = len(files)
    violations: list[Violation] = []
    for name, file in files:
        violations.extend(_lint_file(name, file, rules))
    for rule in rules:
        if isinstance(rule, ProjectRule):
            violations.extend(rule.finalize())
    stats.broken_files = sum(1 for v in violations if v.code == "REP000")
    stats.wall_seconds = time.perf_counter() - started
    return sorted(violations, key=lambda v: (v.path, v.line, v.code))


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="reprolint",
        description="Repo-specific static analysis for the SDSRP reproduction "
        "(determinism, buffer invariants, policy registry).",
    )
    parser.add_argument("paths", nargs="*", help="files or directories to lint")
    parser.add_argument(
        "--select", nargs="+", metavar="CODE", default=None,
        help="only run these rule codes (e.g. REP001 REP004)",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="print the rule set and exit"
    )
    parser.add_argument(
        "--stats", action="store_true",
        help="print file and timing counters to stderr",
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        for cls in ALL_RULES:
            print(f"{cls.code}  {cls.title}")
        return 0
    if not args.paths:
        parser.error("the following arguments are required: paths")

    stats = LintStats()
    violations = lint_paths(args.paths, codes=args.select, stats=stats)
    for violation in violations:
        print(violation.format())
    if args.stats:
        print(stats.format(), file=sys.stderr)
    if violations:
        print(f"reprolint: {len(violations)} violation(s)", file=sys.stderr)
        return 1
    return 0
