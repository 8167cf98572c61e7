"""Intraprocedural dataflow with call summaries.

Two engines live here:

* :class:`SummaryEngine` — per-function side-effect summaries (attribute
  writes/reads, whether the function mutates anything, whether it returns a
  ``set``), made transitive over *precisely* resolved calls (``self.m()``,
  direct imports) with a cycle guard.  Rules use summaries to decide whether
  a call inside an order-tainted loop is a state sink (REP102), which
  attributes the snapshot codec reads transitively (REP103), and whether an
  observer-reachable function writes foreign state (REP104).
* :class:`RngEnv` — per-function RNG provenance: classifies each local
  name / parameter / ``self`` attribute that can hold a random generator as
  stream-derived, parameter-supplied, or unknown (REP101).

Heuristic name-based resolution (:meth:`~reprolint.deep.project.Project.
method_candidates`) is deliberately **not** used for transitive summaries —
it would smear "mutates" over the whole program; rules consult candidates
only at the final sink check.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Union

from reprolint.deep.project import (
    MUTATOR_METHODS,
    ClassInfo,
    FunctionInfo,
    Project,
    attr_chain,
)

FunctionNode = Union[ast.FunctionDef, ast.AsyncFunctionDef]

#: Call names treated as event/trace emission (state sinks even when no
#: attribute write is visible at this level).
EMIT_NAMES = frozenset({"emit", "record", "schedule", "schedule_every", "publish"})

#: numpy.random.Generator draw methods the provenance rule cares about.
DRAW_METHODS = frozenset({
    "random", "uniform", "integers", "choice", "exponential", "normal",
    "standard_normal", "shuffle", "permutation", "poisson", "binomial",
    "geometric", "beta", "gamma", "lognormal", "multinomial", "triangular",
    "laplace", "rayleigh", "standard_exponential",
})

#: Builtins that consume an iterable without exposing its order.
ORDER_SANITIZERS = frozenset({
    "sorted", "min", "max", "sum", "len", "any", "all", "set", "frozenset",
    "heapify",
})

#: Pure builtins safe to call inside an order-tainted loop.
PURE_BUILTINS = frozenset({
    "len", "min", "max", "sum", "any", "all", "sorted", "abs", "round",
    "int", "float", "str", "bool", "repr", "hash", "isinstance", "issubclass",
    "tuple", "list", "dict", "set", "frozenset", "zip", "enumerate", "range",
    "print", "getattr", "hasattr", "id", "type", "iter", "next", "divmod",
    "format", "ord", "chr",
})


@dataclass(frozen=True)
class Summary:
    """Side-effect summary of one function (transitive over precise calls)."""

    writes: frozenset[str]
    reads: frozenset[str]
    mutates: bool
    emits: bool
    returns_set: bool


def _returns_set_annotation(node: FunctionNode) -> bool:
    if node.returns is None:
        return False
    head = ast.unparse(node.returns).split("[", 1)[0].strip().lower()
    return head in {"set", "frozenset", "abstractset"}


class _DirectFacts(ast.NodeVisitor):
    """Direct (non-transitive) facts of one function body."""

    def __init__(self) -> None:
        self.writes: set[str] = set()
        self.reads: set[str] = set()
        self.mutates = False
        self.emits = False
        self.returns_set = False
        self.calls: list[ast.Call] = []

    def _note_write_target(self, target: ast.expr) -> None:
        if isinstance(target, ast.Attribute):
            self.writes.add(target.attr)
            self.mutates = True
        elif isinstance(target, ast.Subscript):
            if isinstance(target.value, ast.Attribute):
                self.writes.add(target.value.attr)
            self.mutates = True
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._note_write_target(elt)

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._note_write_target(target)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self._note_write_target(node.target)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._note_write_target(node.target)
        self.generic_visit(node)

    def visit_Delete(self, node: ast.Delete) -> None:
        for target in node.targets:
            self._note_write_target(target)
        self.generic_visit(node)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if isinstance(node.ctx, ast.Load):
            self.reads.add(node.attr)
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        self.calls.append(node)
        if isinstance(node.func, ast.Attribute):
            if node.func.attr in MUTATOR_METHODS:
                if isinstance(node.func.value, ast.Attribute):
                    self.writes.add(node.func.value.attr)
                self.mutates = True
            if node.func.attr in EMIT_NAMES:
                self.emits = True
                self.mutates = True
        elif isinstance(node.func, ast.Name) and node.func.id in EMIT_NAMES:
            self.emits = True
            self.mutates = True
        self.generic_visit(node)

    def visit_Return(self, node: ast.Return) -> None:
        if node.value is not None and isinstance(
            node.value, (ast.Set, ast.SetComp)
        ):
            self.returns_set = True
        if isinstance(node.value, ast.Call):
            chain = attr_chain(node.value.func)
            if chain and chain[-1] in {"set", "frozenset"}:
                self.returns_set = True
        self.generic_visit(node)


class SummaryEngine:
    """Memoized transitive summaries with a cycle guard."""

    def __init__(self, project: Project, max_depth: int = 6) -> None:
        self.project = project
        self.max_depth = max_depth
        self._memo: dict[str, Summary] = {}
        self._in_progress: set[str] = set()

    def summary(self, fn: FunctionInfo, depth: int = 0) -> Summary:
        cached = self._memo.get(fn.qualname)
        if cached is not None:
            return cached
        facts = _DirectFacts()
        for stmt in fn.node.body:
            facts.visit(stmt)
        returns_set = facts.returns_set or _returns_set_annotation(fn.node)
        writes = set(facts.writes)
        reads = set(facts.reads)
        mutates = facts.mutates
        emits = facts.emits
        if depth < self.max_depth and fn.qualname not in self._in_progress:
            self._in_progress.add(fn.qualname)
            try:
                for call in facts.calls:
                    callee = self.project.resolve_call(fn, call)
                    if callee is None or callee.qualname == fn.qualname:
                        continue
                    sub = self.summary(callee, depth + 1)
                    writes |= sub.writes
                    reads |= sub.reads
                    mutates = mutates or sub.mutates
                    emits = emits or sub.emits
            finally:
                self._in_progress.discard(fn.qualname)
        result = Summary(
            writes=frozenset(writes),
            reads=frozenset(reads),
            mutates=mutates,
            emits=emits,
            returns_set=returns_set,
        )
        # Only cache fully-expanded summaries; partial ones (cycle cut-offs)
        # would otherwise stick.
        if not self._in_progress:
            self._memo[fn.qualname] = result
        return result

    def call_mutates(self, fn: FunctionInfo, call: ast.Call) -> bool:
        """Does this call site (possibly) mutate program state?

        Precise resolution first; falls back to bare-name candidates — the
        call counts as mutating only if *every* candidate mutates (split
        candidate sets are too ambiguous to flag).
        """
        callee = self.project.resolve_call(fn, call)
        if callee is not None:
            return self.summary(callee).mutates
        chain = attr_chain(call.func)
        if chain is None:
            return False
        if chain[-1] in MUTATOR_METHODS or chain[-1] in EMIT_NAMES:
            return True
        candidates = self.project.method_candidates(chain[-1])
        if candidates and all(self.summary(c).mutates for c in candidates):
            return True
        return False


def transitive_reads(
    engine: SummaryEngine, roots: list[FunctionInfo]
) -> set[str]:
    """Attribute names read by *roots* or anything they precisely call."""
    reads: set[str] = set()
    for fn in roots:
        reads |= engine.summary(fn).reads
    return reads


# -- RNG provenance ----------------------------------------------------------

#: Provenance verdicts for a generator-holding name.
STREAM = "stream"          # assigned from RngFactory(...).stream(...)
PARAM = "param"            # supplied by caller as a parameter
DEFAULT_RNG = "default_rng"  # numpy default_rng / RandomState (ambient)
UNKNOWN = "unknown"


def is_stream_call(expr: ast.expr) -> bool:
    """``<anything>.stream(...)`` or ``<anything>.spawn(...)``."""
    return (
        isinstance(expr, ast.Call)
        and isinstance(expr.func, ast.Attribute)
        and expr.func.attr in {"stream", "spawn"}
    )


def rng_like_name(name: str) -> bool:
    lowered = name.lower()
    return (
        "rng" in lowered
        or lowered in {"gen", "generator", "stream", "rand", "random_state"}
        or lowered.endswith("_stream")
    )


def _annotation_is_generator(text: str | None) -> bool:
    if text is None:
        return False
    return "Generator" in text or "RngFactory" in text


class RngEnv:
    """Provenance of generator-holding names inside one function.

    Built by :func:`method_env`: a new env knows only the parameters until
    :meth:`visit_body` has classified the body's assignments.
    """

    def __init__(self, project: Project, fn: FunctionInfo) -> None:
        self.project = project
        self.fn = fn
        self.locals: dict[str, str] = {}
        self.local_sites: dict[str, ast.expr] = {}
        self._attr_cache: dict[str, str] = {}
        for name in fn.params:
            annotation = fn.param_annotation(name)
            if _annotation_is_generator(annotation) or (
                annotation is None and rng_like_name(name)
            ):
                self.locals[name] = PARAM

    def visit_body(self) -> None:
        collector = _RngAssigns(self)
        for stmt in self.fn.node.body:
            collector.visit(stmt)

    def classify_value(self, expr: ast.expr) -> str:
        if is_stream_call(expr):
            return STREAM
        if isinstance(expr, ast.Call):
            chain = attr_chain(expr.func)
            if chain and chain[-1] in {"default_rng", "RandomState"}:
                return DEFAULT_RNG
        if isinstance(expr, ast.Name):
            return self.locals.get(expr.id, UNKNOWN)
        if isinstance(expr, ast.Attribute):
            chain = attr_chain(expr)
            if chain is not None and chain[0] == "self" and len(chain) == 2:
                return self.self_attr_provenance(chain[1])
        return UNKNOWN

    def self_attr_provenance(self, attr: str) -> str:
        """Provenance of ``self.<attr>``: scan the class *and its bases*
        (by bare name) for every ``self.<attr> = ...`` bind."""
        if attr in self._attr_cache:
            return self._attr_cache[attr]
        self._attr_cache[attr] = UNKNOWN  # cycle guard
        cls = self.fn.cls
        if cls is None:
            return UNKNOWN
        verdict = UNKNOWN
        seen: set[str] = set()
        queue = [cls]
        while queue:
            cur = queue.pop(0)
            if cur.qualname in seen:
                continue
            seen.add(cur.qualname)
            for base in cur.bases:
                queue.extend(self.project.classes_by_name.get(base, []))
            for method in cur.methods.values():
                for node in ast.walk(method.node):
                    if not isinstance(node, (ast.Assign, ast.AnnAssign)):
                        continue
                    targets = (
                        node.targets
                        if isinstance(node, ast.Assign)
                        else [node.target]
                    )
                    value = node.value
                    if value is None:
                        continue
                    for target in targets:
                        chain = attr_chain(target)
                        if chain == ["self", attr]:
                            env = method_env(self.project, method)
                            kind = env.classify_value(value)
                            if kind in {STREAM, PARAM}:
                                verdict = kind
                            elif kind == DEFAULT_RNG and verdict == UNKNOWN:
                                verdict = DEFAULT_RNG
        self._attr_cache[attr] = verdict
        return verdict

    def receiver_provenance(self, receiver: ast.expr) -> str:
        return self.classify_value(receiver)


class _RngAssigns(ast.NodeVisitor):
    def __init__(self, env: RngEnv) -> None:
        self.env = env

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        return

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        return

    def visit_Assign(self, node: ast.Assign) -> None:
        value = self.env.classify_value(node.value)
        if value != UNKNOWN:
            for target in node.targets:
                if isinstance(target, ast.Name):
                    self.env.locals[target.id] = value
                    self.env.local_sites[target.id] = node.value
        self.generic_visit(node)


_ENV_CACHE: dict[str, RngEnv] = {}


def method_env(project: Project, fn: FunctionInfo) -> RngEnv:
    """The memoized :class:`RngEnv` of *fn*.

    The env is cached before its body is visited: a body that leads back to
    its own env (``x = self.a`` in a method that also binds ``self.a``, or
    two methods reading each other's attributes) gets the env as visited so
    far instead of building it again without end.
    """
    env = _ENV_CACHE.get(fn.qualname)
    if env is None or env.fn is not fn:
        env = RngEnv(project, fn)
        _ENV_CACHE[fn.qualname] = env
        env.visit_body()
    return env


def find_draw_calls(fn: FunctionInfo) -> list[ast.Call]:
    """Calls that look like ``<receiver>.<draw-method>(...)``."""
    out: list[ast.Call] = []
    for node in ast.walk(fn.node):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in DRAW_METHODS
        ):
            out.append(node)
    return out
