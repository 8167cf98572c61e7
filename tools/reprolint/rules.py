"""The REP rule set.

Each rule is a small AST check with a stable code (``REP001``…), a one-line
title, and a docstring explaining *why* the pattern is banned in this repo.
Rules receive a :class:`FileContext` (parsed tree + normalized path) and
yield :class:`Violation` records; :class:`ProjectRule` subclasses additionally
see every file before reporting (cross-file checks such as the policy
registry audit).

Path scoping conventions (all paths are repo-root-relative, POSIX slashes):

* ``src/…``            — first-party library code (strictest rules)
* ``tests/…``/``benchmarks/…`` — test code (determinism rules still apply,
  but explicit seeded ``np.random.default_rng(seed)`` construction is fine)
* any path containing a ``lint_fixtures`` directory is skipped entirely —
  that is where reprolint's own rule fixtures (deliberate violations) live.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator
from dataclasses import dataclass, field
from typing import Any


@dataclass(frozen=True)
class Violation:
    """One rule hit, formatted ``path:line:col CODE message``."""

    code: str
    path: str
    line: int
    col: int
    message: str

    def format(self) -> str:
        return f"{self.path}:{self.line}:{self.col} {self.code} {self.message}"

    def to_dict(self) -> dict[str, Any]:
        """JSON-safe form (used by the result cache)."""
        return {
            "code": self.code,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "Violation":
        return cls(
            code=str(data["code"]),
            path=str(data["path"]),
            line=int(data["line"]),
            col=int(data["col"]),
            message=str(data["message"]),
        )


@dataclass
class FileContext:
    """A parsed file plus the path facts rules scope on.

    The tree is walked exactly **once** per file: the first call to
    :meth:`nodes` builds a node-type index that every rule then shares,
    instead of each rule re-running ``ast.walk`` over the whole module
    (the pre-index runner spent most of its time in those redundant walks).
    """

    path: str  # repo-root-relative, POSIX separators
    tree: ast.Module
    _index: dict[type[ast.AST], list[ast.AST]] = field(
        default_factory=dict, repr=False, compare=False
    )

    @property
    def in_src(self) -> bool:
        return self.path.startswith("src/")

    @property
    def in_repro(self) -> bool:
        return self.path.startswith("src/repro/")

    def in_dirs(self, *dirs: str) -> bool:
        return any(self.path.startswith(f"src/repro/{d}/") for d in dirs)

    def nodes(self, *types: type[ast.AST]) -> Iterator[ast.AST]:
        """All nodes of the given AST types, in source (line) order."""
        if not self._index:
            for node in ast.walk(self.tree):
                self._index.setdefault(type(node), []).append(node)
        if len(types) == 1:
            yield from self._index.get(types[0], [])
            return
        merged: list[ast.AST] = []
        for t in types:
            merged.extend(self._index.get(t, []))
        merged.sort(key=lambda n: (getattr(n, "lineno", 0), getattr(n, "col_offset", 0)))
        yield from merged


class Rule:
    """Base per-file rule."""

    code = "REP000"
    title = "abstract"

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        raise NotImplementedError

    def violation(self, ctx: FileContext, node: ast.AST, message: str) -> Violation:
        return Violation(
            code=self.code,
            path=ctx.path,
            line=getattr(node, "lineno", 0),
            col=getattr(node, "col_offset", 0),
            message=message,
        )


class ProjectRule(Rule):
    """A rule that needs the whole file set before it can report.

    Split into two halves so the result cache can replay a file's
    contribution without re-parsing it:

    * :meth:`collect_facts` extracts a **JSON-safe** per-file fact dict;
    * :meth:`absorb` merges one fact dict (fresh or cached) into the
      rule's project-wide state, which :meth:`finalize` reports from.
    """

    def collect_facts(self, ctx: FileContext) -> dict[str, Any]:
        raise NotImplementedError

    def absorb(self, facts: dict[str, Any]) -> None:
        raise NotImplementedError

    def finalize(self) -> Iterator[Violation]:
        raise NotImplementedError

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        self.absorb(self.collect_facts(ctx))
        return iter(())


# -- helpers -----------------------------------------------------------------


def _attr_chain(node: ast.AST) -> list[str]:
    """``np.random.default_rng`` -> ["np", "random", "default_rng"]."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return list(reversed(parts))
    return []


_NUMPY_NAMES = {"np", "numpy"}


def _is_np_random(chain: list[str]) -> bool:
    """True for ``np.random.X`` / ``numpy.random.X`` chains."""
    return len(chain) >= 3 and chain[0] in _NUMPY_NAMES and chain[1] == "random"


# -- REP001 ------------------------------------------------------------------


class Rep001AmbientRng(Rule):
    """All randomness must flow through the seeded stream registry.

    Bit-reproducibility is the repo's core guarantee: the same scenario seed
    yields identical runs, serial or parallel.  Global RNG state (stdlib
    ``random``, ``np.random.seed``, draws from ``np.random``'s ambient
    generator) breaks that silently — results depend on import order, other
    components' draws, or nothing at all.  Library code must take an
    ``np.random.Generator`` argument or request a named stream from
    :class:`repro.rng.RngFactory`; only ``repro/rng.py`` may construct
    generators.  Tests may build explicit seeded generators
    (``np.random.default_rng(seed)``) to pass into components.
    """

    code = "REP001"
    title = "ambient/global RNG outside repro/rng.py"

    #: np.random attributes that are types/seeding machinery, not draws.
    _NON_DRAWS = {
        "Generator",
        "SeedSequence",
        "BitGenerator",
        "PCG64",
        "PCG64DXSM",
        "Philox",
        "RandomState",
        "default_rng",
    }

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        is_rng_module = ctx.path == "src/repro/rng.py"
        for node in ctx.nodes(ast.Import, ast.ImportFrom, ast.Call):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "random" or alias.name.startswith("random."):
                        yield self.violation(
                            ctx, node,
                            "stdlib `random` is ambient global state; use a "
                            "seeded np.random.Generator from repro.rng",
                        )
            elif isinstance(node, ast.ImportFrom):
                if node.module == "random":
                    yield self.violation(
                        ctx, node,
                        "stdlib `random` is ambient global state; use a "
                        "seeded np.random.Generator from repro.rng",
                    )
            elif isinstance(node, ast.Call):
                chain = _attr_chain(node.func)
                if not _is_np_random(chain):
                    continue
                leaf = chain[2]
                if leaf == "seed":
                    yield self.violation(
                        ctx, node,
                        "np.random.seed mutates global RNG state; seed a "
                        "Generator via repro.rng instead",
                    )
                elif leaf == "default_rng":
                    if ctx.in_src and not is_rng_module:
                        yield self.violation(
                            ctx, node,
                            "np.random.default_rng outside repro/rng.py "
                            "bypasses the seeded stream registry; accept a "
                            "Generator argument or use RngFactory.stream()",
                        )
                elif leaf not in self._NON_DRAWS:
                    yield self.violation(
                        ctx, node,
                        f"np.random.{leaf}() draws from the ambient global "
                        "generator; draw from a seeded Generator instead",
                    )


# -- REP002 ------------------------------------------------------------------


class Rep002WallClock(Rule):
    """Simulation code must read :attr:`Simulator.now`, never the wall clock.

    A wall-clock read inside ``src/repro`` makes behaviour depend on host
    speed and run timing — the same seed would produce different traces on
    different machines, invalidating every reproduced figure.  Banned calls:
    ``time.time``/``time.time_ns``, ``time.monotonic``/``time.monotonic_ns``,
    ``datetime.now``/``utcnow``/``today``.  (``time.perf_counter`` is
    allowed: it feeds the *diagnostic* ``wall_seconds`` field of run
    summaries and never influences simulation state.)
    """

    code = "REP002"
    title = "wall-clock read in simulation code"

    _TIME_FNS = {"time", "time_ns", "monotonic", "monotonic_ns"}
    _DATETIME_FNS = {"now", "utcnow", "today"}

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        if not ctx.in_repro:
            return
        for node in ctx.nodes(ast.ImportFrom, ast.Call):
            if isinstance(node, ast.ImportFrom) and node.module == "time":
                for alias in node.names:
                    if alias.name in self._TIME_FNS:
                        yield self.violation(
                            ctx, node,
                            f"importing time.{alias.name} into sim code; "
                            "use Simulator.now for simulated time",
                        )
            elif isinstance(node, ast.Call):
                chain = _attr_chain(node.func)
                if len(chain) < 2:
                    continue
                if chain[0] == "time" and chain[1] in self._TIME_FNS:
                    yield self.violation(
                        ctx, node,
                        f"time.{chain[1]}() is a wall-clock read; use "
                        "Simulator.now for simulated time",
                    )
                elif chain[-1] in self._DATETIME_FNS and "datetime" in chain[:-1]:
                    yield self.violation(
                        ctx, node,
                        f"datetime {chain[-1]}() is a wall-clock read; use "
                        "Simulator.now for simulated time",
                    )


# -- REP003 ------------------------------------------------------------------


class Rep003TimeFloatEquality(Rule):
    """Sim-time floats accumulate error; exact ``==`` comparisons are traps.

    Simulation timestamps are sums of float intervals (ticks, transfer
    durations, exponential gaps).  ``a == b`` on two times that are
    *logically* simultaneous fails once either went through different
    arithmetic, and such bugs appear only at specific seeds.  Compare with
    an explicit tolerance via :func:`repro.units.time_eq`, or restructure to
    use ordering (``<=``) which is robust.  The rule flags ``==``/``!=``
    where either operand is a recognizably time-valued expression
    (``now``, ``.eta``, ``.created_at``, ``.started_at``, ``.end_time``,
    ``.sim_time``, ``.expires_at()``, ``.remaining_ttl()``, ``.elapsed()``).
    """

    code = "REP003"
    title = "==/!= on sim-time floats"

    _TIME_NAMES = {
        "now", "eta", "created_at", "started_at", "end_time", "sim_time",
    }
    _TIME_CALLS = {"expires_at", "remaining_ttl", "elapsed"}

    def _is_time_expr(self, node: ast.expr) -> bool:
        if isinstance(node, ast.Name):
            return node.id in self._TIME_NAMES
        if isinstance(node, ast.Attribute):
            return node.attr in self._TIME_NAMES
        if isinstance(node, ast.Call):
            chain = _attr_chain(node.func)
            return bool(chain) and chain[-1] in self._TIME_CALLS
        return False

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        if not ctx.in_src:
            return
        for node in ctx.nodes(ast.Compare):
            assert isinstance(node, ast.Compare)
            operands = [node.left, *node.comparators]
            for op, left, right in zip(node.ops, operands, operands[1:]):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                pair = (left, right)
                if any(
                    isinstance(o, ast.Constant) and o.value is None for o in pair
                ):
                    continue  # `x == None` is a different mistake
                if any(self._is_time_expr(o) for o in pair):
                    yield self.violation(
                        ctx, node,
                        "exact ==/!= on a sim-time float; use "
                        "repro.units.time_eq(a, b) or an ordering comparison",
                    )
                    break


# -- REP004 ------------------------------------------------------------------


class Rep004MutableDefault(Rule):
    """Mutable default arguments are shared across calls.

    A ``def f(xs=[])`` default is evaluated once at function definition and
    shared by every call — state leaks between invocations (and between
    *nodes*, when the function is a policy method), which is both a classic
    bug and a determinism hazard.  Use ``None`` plus an in-body default, or
    ``dataclasses.field(default_factory=...)``.
    """

    code = "REP004"
    title = "mutable default argument"

    def _is_mutable(self, node: ast.expr | None) -> bool:
        if node is None:
            return False
        if isinstance(node, (ast.List, ast.Dict, ast.Set)):
            return True
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            return node.func.id in {"list", "dict", "set", "bytearray"}
        return False

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        for node in ctx.nodes(ast.FunctionDef, ast.AsyncFunctionDef):
            assert isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            defaults = [*node.args.defaults, *node.args.kw_defaults]
            for default in defaults:
                if self._is_mutable(default):
                    yield self.violation(
                        ctx, default,
                        f"mutable default argument in {node.name}(); use "
                        "None and assign inside the body",
                    )


# -- REP005 ------------------------------------------------------------------


class Rep005PolicyRegistry(ProjectRule):
    """Concrete buffer policies must be registered; drops must use constants.

    The experiment harness, CLI and sweep engine reach policies exclusively
    through :mod:`repro.policies.registry` — an unregistered
    :class:`BufferPolicy` subclass is dead code that silently falls out of
    every figure.  Likewise, drop-reason strings feed
    ``RunSummary.drops`` and SDSRP's dropped-list gossip; a typo'd literal
    (``"overflw"``) would split the counters without any error, so drop
    sites must reference the ``DROP_*`` constants declared in
    :mod:`repro.net.outcomes`.
    """

    code = "REP005"
    title = "unregistered policy / literal drop reason"

    #: Root classes of the policy hierarchy (abstract, never registered).
    _ROOTS = {"BufferPolicy", "StaticRankPolicy"}
    _DROP_CALLS = {"drop_message": 1, "on_message_dropped": 2}

    def __init__(self) -> None:
        #: class name -> (base names, is_abstract, path, line)
        self._classes: dict[str, tuple[list[str], bool, str, int]] = {}
        self._registered: set[str] = set()
        self._literal_hits: list[Violation] = []

    def collect_facts(self, ctx: FileContext) -> dict[str, Any]:
        classes: dict[str, list[Any]] = {}
        registered: list[str] = []
        literals: list[dict[str, Any]] = []
        if ctx.in_src:
            for node in ctx.nodes(ast.ClassDef):
                assert isinstance(node, ast.ClassDef)
                bases = [
                    _attr_chain(b)[-1] if _attr_chain(b) else ""
                    for b in node.bases
                ]
                classes[node.name] = [
                    bases, self._is_abstract(node, bases), ctx.path, node.lineno
                ]
            for node in ctx.nodes(ast.Call):
                assert isinstance(node, ast.Call)
                self._collect_registration(node, registered)
                literal = self._drop_literal(ctx, node)
                if literal is not None:
                    literals.append(literal.to_dict())
        return {"classes": classes, "registered": registered, "literals": literals}

    def absorb(self, facts: dict[str, Any]) -> None:
        for name, entry in facts["classes"].items():
            bases, is_abstract, path, line = entry
            self._classes[name] = (
                list(bases), bool(is_abstract), str(path), int(line)
            )
        self._registered.update(facts["registered"])
        self._literal_hits.extend(
            Violation.from_dict(d) for d in facts["literals"]
        )

    @staticmethod
    def _is_abstract(node: ast.ClassDef, bases: list[str]) -> bool:
        if "ABC" in bases:
            return True
        for stmt in node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for deco in stmt.decorator_list:
                    if _attr_chain(deco)[-1:] == ["abstractmethod"]:
                        return True
        return False

    def _collect_registration(
        self, node: ast.Call, registered: list[str]
    ) -> None:
        chain = _attr_chain(node.func)
        if chain[-1:] == ["register_policy"] and len(node.args) >= 2:
            factory = _attr_chain(node.args[1])
            if factory:
                registered.append(factory[-1])
        elif chain[-1:] == ["update"] and len(node.args) == 1:
            # `_REGISTRY.update({...: Factory})` in policies/registry.py.
            if not (len(chain) >= 2 and "REGISTRY" in chain[-2].upper()):
                return
            arg = node.args[0]
            if isinstance(arg, ast.Dict):
                for value in arg.values:
                    factory = _attr_chain(value)
                    if factory:
                        registered.append(factory[-1])

    def _drop_literal(
        self, ctx: FileContext, node: ast.Call
    ) -> Violation | None:
        chain = _attr_chain(node.func)
        if not chain:
            return None
        reason: ast.expr | None = None
        if chain[-1] in self._DROP_CALLS:
            idx = self._DROP_CALLS[chain[-1]]
            if len(node.args) > idx:
                reason = node.args[idx]
        elif chain[-1] == "emit" and node.args:
            topic = node.args[0]
            if (
                isinstance(topic, ast.Constant)
                and topic.value == "message.dropped"
                and len(node.args) >= 4
            ):
                reason = node.args[3]
        for kw in node.keywords:
            if kw.arg == "reason":
                reason = kw.value
        if isinstance(reason, ast.Constant) and isinstance(reason.value, str):
            return Violation(
                code=self.code,
                path=ctx.path,
                line=node.lineno,
                col=node.col_offset,
                message=(
                    f"drop reason {reason.value!r} is a string literal; "
                    "use a DROP_* constant from repro.net.outcomes"
                ),
            )
        return None

    def finalize(self) -> Iterator[Violation]:
        yield from self._literal_hits
        policy_classes = set(self._ROOTS)
        changed = True
        while changed:
            changed = False
            for name, (bases, _, _, _) in self._classes.items():
                if name not in policy_classes and policy_classes & set(bases):
                    policy_classes.add(name)
                    changed = True
        for name in sorted(policy_classes - self._ROOTS):
            bases, is_abstract, path, line = self._classes[name]
            if is_abstract or name in self._registered:
                continue
            yield Violation(
                code=self.code,
                path=path,
                line=line,
                col=0,
                message=(
                    f"BufferPolicy subclass {name} is not registered in "
                    "policies/registry.py (register_policy or _REGISTRY)"
                ),
            )


# -- REP006 ------------------------------------------------------------------


class Rep006SwallowedException(Rule):
    """Engine/net/parallel code must fail loudly.

    A swallowed exception in the event loop, the transfer manager or the
    worker pool does not crash the run — it silently skews delivery ratios
    and copy counts, which is the worst possible failure mode for a
    reproduction.  Bare ``except:`` additionally catches
    ``KeyboardInterrupt``/``SystemExit`` and can hang sweeps.  Catch the
    narrowest type and either handle, re-raise, or record the failure
    (``FailedRun``).
    """

    code = "REP006"
    title = "bare/silently-swallowed exception"

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        if not ctx.in_dirs("engine", "net", "parallel"):
            return
        for node in ctx.nodes(ast.ExceptHandler):
            assert isinstance(node, ast.ExceptHandler)
            if node.type is None:
                yield self.violation(
                    ctx, node,
                    "bare `except:` (catches KeyboardInterrupt/SystemExit); "
                    "name the exception type",
                )
            elif all(self._is_noop(stmt) for stmt in node.body):
                yield self.violation(
                    ctx, node,
                    "exception silently swallowed (handler body is only "
                    "pass/...); handle, re-raise, or record the failure",
                )

    @staticmethod
    def _is_noop(stmt: ast.stmt) -> bool:
        if isinstance(stmt, ast.Pass):
            return True
        return (
            isinstance(stmt, ast.Expr)
            and isinstance(stmt.value, ast.Constant)
            and stmt.value.value is Ellipsis
        )


# -- REP008 ------------------------------------------------------------------


class Rep008PickledState(Rule):
    """Simulator state must be snapshotted via ``repro.snapshot``, not pickled.

    ``pickle``/``marshal`` payloads are not a stable format: they embed class
    import paths and memory layout, break across refactors and Python
    versions, silently capture unpicklable members as garbage, and carry no
    schema version or checksum — the opposite of what a reproducible
    checkpoint needs (and ``pickle.load`` on an untrusted file executes
    arbitrary code).  The sanctioned path is :mod:`repro.snapshot`, which
    serializes state to versioned, checksummed, JSON-safe structures;
    only that package may choose its own encoding.
    """

    code = "REP008"
    title = "pickle/marshal of simulator state outside repro.snapshot"

    _BANNED = {"pickle", "cPickle", "marshal"}

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        if not ctx.in_src or ctx.path.startswith("src/repro/snapshot/"):
            return
        for node in ctx.nodes(ast.Import, ast.ImportFrom, ast.Call):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    root = alias.name.split(".", 1)[0]
                    if root in self._BANNED:
                        yield self.violation(
                            ctx, node,
                            f"`import {alias.name}` in simulation code; "
                            "serialize state via repro.snapshot, not "
                            f"{root}",
                        )
            elif isinstance(node, ast.ImportFrom):
                root = (node.module or "").split(".", 1)[0]
                if root in self._BANNED:
                    yield self.violation(
                        ctx, node,
                        f"`from {node.module} import ...` in simulation "
                        "code; serialize state via repro.snapshot, not "
                        f"{root}",
                    )
            elif isinstance(node, ast.Call):
                chain = _attr_chain(node.func)
                if len(chain) >= 2 and chain[0] in self._BANNED:
                    yield self.violation(
                        ctx, node,
                        f"{chain[0]}.{chain[-1]}() serializes by memory "
                        "layout, not schema; use repro.snapshot "
                        "save/restore instead",
                    )


# -- REP009 ------------------------------------------------------------------


class Rep009SwallowedInvariant(Rule):
    """Invariant violations must propagate to the oracles.

    The runtime sanitizer's :class:`repro.errors.InvariantViolation` is the
    chaos harness's primary signal: a handler that catches it (directly, or
    hidden inside ``except Exception`` / a ``ReproError`` superclass / a
    bare ``except``) and does not re-raise the *same* exception converts a
    detected simulator bug into a silently-wrong run — the exact failure
    mode the oracle stack exists to prevent.  Only the designated failure
    boundaries may absorb broad exceptions: the chaos runner (it *is* the
    oracle) and the sweep engine (failures become ``FailedRun`` records).
    Everywhere else in ``src/repro``, either catch something narrower than
    ``InvariantViolation`` or re-raise it unchanged (bare ``raise`` or
    ``raise <bound name>``; wrapping it in another exception type hides the
    invariant from the oracles and is equally flagged).
    """

    code = "REP009"
    title = "handler swallows or re-wraps InvariantViolation"

    #: Exception names that catch InvariantViolation (itself or a
    #: superclass, including the builtins).
    _BROAD = {
        "InvariantViolation", "SimulationError", "ReproError",
        "Exception", "BaseException",
    }
    #: Failure boundaries allowed to absorb broad exceptions (they turn
    #: them into oracle verdicts / FailedRun records by design).
    _ALLOWED_PREFIXES = ("src/repro/chaos/", "src/repro/service/")
    _ALLOWED_FILES = {
        "src/repro/experiments/runner.py",
        "src/repro/experiments/sweep.py",
    }

    def _catches_broadly(self, handler: ast.ExceptHandler) -> bool:
        if handler.type is None:
            return True
        types = (
            handler.type.elts
            if isinstance(handler.type, ast.Tuple)
            else [handler.type]
        )
        for t in types:
            chain = _attr_chain(t)
            if chain and chain[-1] in self._BROAD:
                return True
        return False

    def _reraises(self, handler: ast.ExceptHandler) -> bool:
        bound = handler.name
        for node in ast.walk(handler):
            if not isinstance(node, ast.Raise):
                continue
            if node.exc is None:
                return True  # bare `raise`
            if (
                bound is not None
                and isinstance(node.exc, ast.Name)
                and node.exc.id == bound
            ):
                return True  # `raise exc` unchanged
        return False

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        if not ctx.in_repro:
            return
        if ctx.path in self._ALLOWED_FILES or ctx.path.startswith(
            self._ALLOWED_PREFIXES
        ):
            return
        for node in ctx.nodes(ast.ExceptHandler):
            assert isinstance(node, ast.ExceptHandler)
            if self._catches_broadly(node) and not self._reraises(node):
                caught = (
                    "bare except"
                    if node.type is None
                    else ast.unparse(node.type)
                )
                yield self.violation(
                    ctx, node,
                    f"`except {caught}` swallows InvariantViolation; "
                    "re-raise it unchanged or catch a narrower type "
                    "(violations must reach the chaos oracles)",
                )


# -- REP010 ------------------------------------------------------------------


class Rep010AmbientSleep(Rule):
    """Library code must not block on the wall clock.

    An ambient ``time.sleep`` inside ``src/repro`` makes behaviour (and
    test wall-time) depend on host speed and hides a missing abstraction:
    simulation code advances via :attr:`Simulator.now`, and anything that
    genuinely needs to pace itself against real time must take an
    injectable ``sleep`` callable so tests and chaos campaigns can run it
    on a fake clock.  Only the two sanctioned pacing sites may call it:
    the sweep engine's retry backoff (``experiments/sweep.py``) and the
    scenario service's drain loop (``src/repro/service/``) — both of which
    expose the delay schedule / sleep hook for deterministic testing.
    Flagged: ``time.sleep(...)`` calls and ``from time import sleep``.
    """

    code = "REP010"
    title = "ambient time.sleep outside the sanctioned pacing sites"

    _ALLOWED_PREFIXES = ("src/repro/service/",)
    _ALLOWED_FILES = {"src/repro/experiments/sweep.py"}

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        if not ctx.in_repro:
            return
        if ctx.path in self._ALLOWED_FILES or ctx.path.startswith(
            self._ALLOWED_PREFIXES
        ):
            return
        for node in ctx.nodes(ast.ImportFrom, ast.Call):
            if isinstance(node, ast.ImportFrom) and node.module == "time":
                for alias in node.names:
                    if alias.name == "sleep":
                        yield self.violation(
                            ctx, node,
                            "`from time import sleep` in library code; "
                            "accept an injectable sleep callable (see "
                            "repro.service) or restructure to event-driven "
                            "waiting",
                        )
            elif isinstance(node, ast.Call):
                chain = _attr_chain(node.func)
                if chain[-2:] == ["time", "sleep"]:
                    yield self.violation(
                        ctx, node,
                        "time.sleep() blocks on the wall clock in library "
                        "code; accept an injectable sleep callable (see "
                        "repro.service) or restructure to event-driven "
                        "waiting",
                    )


#: Rule classes in code order; the runner instantiates fresh per invocation.
ALL_RULES: tuple[type[Rule], ...] = (
    Rep001AmbientRng,
    Rep002WallClock,
    Rep003TimeFloatEquality,
    Rep004MutableDefault,
    Rep005PolicyRegistry,
    Rep006SwallowedException,
    Rep008PickledState,
    Rep009SwallowedInvariant,
    Rep010AmbientSleep,
)
