"""File collection, result caching and rule driving for reprolint.

Separated from :mod:`reprolint.rules` so tests can lint in-memory sources
(:func:`lint_source`) and fixture trees (:func:`lint_paths`) without going
through the CLI.

Performance model (see ``docs/static_analysis.md``):

* each file is **read and parsed once**; rules share a node-type index on
  the :class:`~reprolint.rules.FileContext` instead of re-walking the tree;
* an on-disk result cache (``.reprolint_cache/``, enabled by the CLI) keyed
  by mtime + sha256 + a tool fingerprint skips unchanged files entirely —
  per-file violations and the project-rule facts are both replayed;
* cache misses can be linted in parallel on a ``spawn`` process pool
  (``--workers``); the runner degrades to serial when the pool breaks.

Robustness: a file that cannot be decoded (non-UTF-8 bytes) or parsed
(syntax error, null bytes) is reported as a structured ``REP000`` finding
and the run continues — one broken file must not hide every other finding.
"""

from __future__ import annotations

import argparse
import ast
import hashlib
import json
import multiprocessing
import os
import sys
import time
from collections.abc import Iterable, Sequence
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path, PurePosixPath
from typing import Any

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

#: Default cache directory name (created under the lint root by the CLI).
CACHE_DIR_NAME = ".reprolint_cache"

_CACHE_SCHEMA = 1

#: Below this many cache misses a spawn-based pool costs more than it saves
#: (each worker re-imports numpy); ``--workers`` forces either way.
PARALLEL_THRESHOLD = 200


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


def _lint_blob(
    name: str, data: bytes, rules: Sequence[Rule]
) -> tuple[list[dict[str, Any]], dict[str, Any]]:
    """Lint one in-memory file; returns JSON-safe (violations, facts)."""
    tree, broken = parse_blob(name, data)
    if tree is None:
        return [broken.to_dict()] if broken is not None else [], {}
    ctx = FileContext(path=name, tree=tree)
    violations: list[dict[str, Any]] = []
    facts: dict[str, Any] = {}
    for rule in rules:
        if isinstance(rule, ProjectRule):
            facts[rule.code] = rule.collect_facts(ctx)
        else:
            violations.extend(v.to_dict() for v in rule.check(ctx))
    return violations, facts


def _lint_file_task(item: tuple[str, str]) -> dict[str, Any]:
    """Worker entry for the lint pool: lint one file from disk.

    Takes/returns only JSON-safe values so the spawn pool can pickle them;
    rules are re-instantiated per call (they are cheap, stateless objects).
    """
    name, raw_path = item
    rules = _select_rules(None)
    try:
        data = Path(raw_path).read_bytes()
    except OSError as exc:
        return {
            "name": name,
            "violations": [_broken_file(name, 0, 0, f"unreadable file: {exc}").to_dict()],
            "facts": {},
            "sha256": None,
        }
    violations, facts = _lint_blob(name, data, rules)
    return {
        "name": name,
        "violations": violations,
        "facts": facts,
        "sha256": hashlib.sha256(data).hexdigest(),
    }


# -- result cache ------------------------------------------------------------


def tool_fingerprint() -> str:
    """Hash of reprolint's own sources: any rule change invalidates the cache."""
    root = Path(__file__).resolve().parent
    digest = hashlib.sha256()
    for file in sorted(root.rglob("*.py")):
        digest.update(file.read_bytes())
    return digest.hexdigest()[:16]


class ResultCache:
    """mtime+sha256-keyed per-file lint results under ``.reprolint_cache/``.

    A file hits the cache when its ``(mtime_ns, size)`` pair matches the
    stored entry (fast path, no read) or — after an mtime-only touch — when
    its content sha256 still matches.  Entries store both the per-file
    violations and the project-rule facts so a fully-cached run never
    parses anything.  The whole cache is dropped when reprolint's own
    sources change (:func:`tool_fingerprint`).
    """

    def __init__(self, directory: Path, fingerprint: str | None = None) -> None:
        self.directory = directory
        self.path = directory / f"cache-v{_CACHE_SCHEMA}.json"
        self.fingerprint = fingerprint or tool_fingerprint()
        self.hits = 0
        self.misses = 0
        self._dirty = False
        self._entries: dict[str, dict[str, Any]] = {}
        try:
            raw = json.loads(self.path.read_text(encoding="utf-8"))
            if (
                isinstance(raw, dict)
                and raw.get("schema") == _CACHE_SCHEMA
                and raw.get("tool") == self.fingerprint
                and isinstance(raw.get("files"), dict)
            ):
                self._entries = raw["files"]
        except (OSError, ValueError):
            self._entries = {}

    def lookup(self, name: str, path: Path) -> dict[str, Any] | None:
        """Cached entry for *name* if the on-disk file is unchanged."""
        entry = self._entries.get(name)
        if entry is None:
            self.misses += 1
            return None
        try:
            st = path.stat()
        except OSError:
            self.misses += 1
            return None
        if st.st_mtime_ns == entry.get("mtime_ns") and st.st_size == entry.get("size"):
            self.hits += 1
            return entry
        try:
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
        except OSError:
            self.misses += 1
            return None
        if digest == entry.get("sha256"):
            entry["mtime_ns"] = st.st_mtime_ns
            entry["size"] = st.st_size
            self._dirty = True
            self.hits += 1
            return entry
        self.misses += 1
        return None

    def store(
        self,
        name: str,
        path: Path,
        violations: list[dict[str, Any]],
        facts: dict[str, Any],
        sha256: str | None = None,
    ) -> None:
        try:
            st = path.stat()
            if sha256 is None:
                sha256 = hashlib.sha256(path.read_bytes()).hexdigest()
        except OSError:
            return
        self._entries[name] = {
            "mtime_ns": st.st_mtime_ns,
            "size": st.st_size,
            "sha256": sha256,
            "violations": violations,
            "facts": facts,
        }
        self._dirty = True

    def save(self) -> None:
        """Best-effort atomic write; a read-only checkout must not fail lint."""
        if not self._dirty:
            return
        payload = {
            "schema": _CACHE_SCHEMA,
            "tool": self.fingerprint,
            "files": self._entries,
        }
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
            tmp = self.path.with_suffix(".tmp")
            tmp.write_text(json.dumps(payload), encoding="utf-8")
            os.replace(tmp, self.path)
        except OSError:
            return


# -- parallel support --------------------------------------------------------


def _lint_in_pool(
    items: list[tuple[str, str]], workers: int
) -> list[dict[str, Any]]:
    """Lint *items* on a ``spawn`` process pool, results in input order.

    Spawn, not fork, on every platform: workers must not inherit the
    parent's state, and the linter must not depend on the package it lints.
    Chunked so IPC is amortized over many small files.
    """
    with ProcessPoolExecutor(
        max_workers=min(workers, len(items)),
        mp_context=multiprocessing.get_context("spawn"),
    ) as pool:
        return list(pool.map(
            _lint_file_task, items, chunksize=max(1, len(items) // 32)
        ))


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
        self.cache_hits = 0
        self.cache_misses = 0
        self.broken_files = 0
        self.parallel_workers = 0
        self.wall_seconds = 0.0

    def format(self) -> str:
        return (
            f"reprolint: {self.files} file(s), "
            f"{self.cache_hits} cached, {self.cache_misses} linted"
            + (
                f" ({self.parallel_workers} workers)"
                if self.parallel_workers
                else ""
            )
            + (f", {self.broken_files} unparseable" if self.broken_files else "")
            + f", {self.wall_seconds:.2f}s"
        )


def lint_paths(
    paths: Sequence[str | Path],
    root: Path | None = None,
    codes: Iterable[str] | None = None,
    *,
    cache_dir: Path | None = None,
    workers: int | None = None,
    stats: LintStats | None = None,
) -> list[Violation]:
    """Lint files/directories; returns all violations, sorted.

    *cache_dir* enables the on-disk result cache (ignored when *codes*
    narrows the rule set — partial results must never poison the cache).
    *workers* > 1 lints cache misses on a process pool; ``None`` decides
    automatically (all cores but one, once there are enough misses).
    """
    started = time.perf_counter()
    stats = stats if stats is not None else LintStats()
    rules = _select_rules(codes)
    files = collect_files(paths, root)
    stats.files = len(files)

    cache: ResultCache | None = None
    if cache_dir is not None and codes is None:
        cache = ResultCache(cache_dir)

    # Phase 1: replay cache hits, collect misses.
    per_file: dict[str, tuple[list[dict[str, Any]], dict[str, Any]]] = {}
    misses: list[tuple[str, Path]] = []
    for name, file in files:
        entry = cache.lookup(name, file) if cache is not None else None
        if entry is not None:
            per_file[name] = (entry["violations"], entry["facts"])
        else:
            misses.append((name, file))
    if cache is not None:
        stats.cache_hits = cache.hits
    stats.cache_misses = len(misses)

    # Phase 2: lint the misses (serial, or on a pool when it pays off).
    pool_workers = 0
    if len(misses) > 1 and codes is None:
        if workers is None and len(misses) >= PARALLEL_THRESHOLD:
            pool_workers = max(1, (os.cpu_count() or 2) - 1)
        elif workers is not None:
            pool_workers = workers
    items = [(name, str(file)) for name, file in misses]
    results: list[dict[str, Any]] | None = None
    if pool_workers > 1:
        try:
            results = _lint_in_pool(items, pool_workers)
            stats.parallel_workers = pool_workers
        except Exception:
            # A broken pool (sandboxed CI, missing /dev/shm, ...) must not
            # fail lint; re-lint everything serially instead.
            results = None
    if results is None:
        results = [_lint_file_task(item) for item in items]
    for (name, file), result in zip(misses, results):
        per_file[name] = (result["violations"], result["facts"])
        if cache is not None and result["sha256"] is not None:
            cache.store(
                name, file, result["violations"], result["facts"],
                sha256=result["sha256"],
            )

    # Phase 3: merge in collection order (project-rule state is order-
    # dependent: duplicate class names resolve last-wins, as before).
    violations: list[Violation] = []
    project_rules = [r for r in rules if isinstance(r, ProjectRule)]
    wanted_codes = {r.code for r in rules}
    for name, _file in files:
        file_violations, facts = per_file[name]
        for data in file_violations:
            if data["code"] in wanted_codes or data["code"] == "REP000":
                violations.append(Violation.from_dict(data))
        for rule in project_rules:
            if rule.code in facts:
                rule.absorb(facts[rule.code])
    for rule in project_rules:
        violations.extend(rule.finalize())

    stats.broken_files = sum(1 for v in violations if v.code == "REP000")
    if cache is not None:
        cache.save()
    stats.wall_seconds = time.perf_counter() - started
    return sorted(violations, key=lambda v: (v.path, v.line, v.code))


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="reprolint",
        description="Repo-specific static analysis for the SDSRP reproduction "
        "(determinism, buffer invariants, policy registry).",
    )
    parser.add_argument("paths", nargs="+", help="files or directories to lint")
    parser.add_argument(
        "--select", nargs="+", metavar="CODE", default=None,
        help="only run these rule codes (e.g. REP001 REP004); disables the cache",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="print the rule set and exit"
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="ignore and do not write the .reprolint_cache/ result cache",
    )
    parser.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help=f"cache directory (default: ./{CACHE_DIR_NAME})",
    )
    parser.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="lint cache misses with N parallel workers (default: auto)",
    )
    parser.add_argument(
        "--stats", action="store_true",
        help="print file/cache/timing counters to stderr",
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        for cls in ALL_RULES:
            print(f"{cls.code}  {cls.title}")
        return 0

    cache_dir: Path | None = None
    if not args.no_cache:
        cache_dir = Path(args.cache_dir) if args.cache_dir else Path(CACHE_DIR_NAME)

    stats = LintStats()
    violations = lint_paths(
        args.paths,
        codes=args.select,
        cache_dir=cache_dir,
        workers=args.workers,
        stats=stats,
    )
    for violation in violations:
        print(violation.format())
    if args.stats:
        print(stats.format(), file=sys.stderr)
    if violations:
        print(f"reprolint: {len(violations)} violation(s)", file=sys.stderr)
        return 1
    return 0
