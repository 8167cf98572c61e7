"""The four deep rule families: REP101-REP104.

Each rule is a callable object with ``code``/``title``/``explain`` and a
``run(project, engine) -> list[Finding]``.  All four fail toward *silence*
on unresolvable constructs — a lint gate must be quiet on code it cannot
understand, and the chaos harness still covers the dynamic residue.

See ``docs/static_analysis.md`` for the property each rule proves and the
refactor it protects.
"""

from __future__ import annotations

import ast
from typing import Union

from reprolint.deep.engine import (
    DEFAULT_RNG,
    DRAW_METHODS,
    PARAM,
    STREAM,
    UNKNOWN,
    RngEnv,
    SummaryEngine,
    _returns_set_annotation,
    is_stream_call,
    method_env,
    rng_like_name,
)
from reprolint.deep.findings import Finding
from reprolint.deep.project import (
    MUTATOR_METHODS,
    ClassInfo,
    FunctionInfo,
    ModuleInfo,
    Project,
    attr_chain,
)

FunctionNode = Union[ast.FunctionDef, ast.AsyncFunctionDef]


def _finding(
    code: str, module: ModuleInfo, node: ast.AST, message: str, **detail: object
) -> Finding:
    line = getattr(node, "lineno", 0)
    return Finding(
        code=code,
        path=module.path,
        line=line,
        col=getattr(node, "col_offset", 0),
        message=message,
        anchor=module.anchor(line),
        detail={k: v for k, v in detail.items()},
    )


def _function_bodies(fn: FunctionInfo) -> list[ast.stmt]:
    return list(fn.node.body)


def _walk_no_nested(node: ast.AST) -> list[ast.AST]:
    """Walk *node* without descending into nested function/class defs."""
    out: list[ast.AST] = []
    stack: list[ast.AST] = [node]
    while stack:
        cur = stack.pop()
        out.append(cur)
        for child in ast.iter_child_nodes(cur):
            if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)
            ):
                continue
            stack.append(child)
    return out


# ---------------------------------------------------------------------------
# REP101 — RNG provenance
# ---------------------------------------------------------------------------


class Rep101RngProvenance:
    code = "REP101"
    title = "random draws must trace to a named RngFactory stream"
    explain = """\
Every random draw in the simulator must be a pure function of the scenario
seed.  The repo's contract: generators come from `RngFactory(seed).stream(
"subsystem.name")`, worker processes derive child seeds with `derive_seed(
base, *components)`, and nothing draws from numpy's ambient generator
(REP001 already bans the `np.random.*` module functions).

This rule proves the cross-module half of that contract:

* a draw call (`.random()`, `.integers()`, `.choice()`, ...) whose receiver
  cannot be traced — through locals, parameters and `self` attributes — to a
  `.stream(...)`/`.spawn(...)` call or a caller-supplied Generator parameter
  is flagged;
* `RngFactory(<literal int>)` anywhere outside the factory's own module is
  flagged: a constant seed silently decouples that subsystem from the
  scenario seed (vectorizing a hot loop by hoisting a factory is exactly
  how this regresses);
* a stream created *outside* a per-node loop under a constant name and then
  drawn from *inside* the loop is flagged as shared: per-node work must use
  per-node stream names (or `derive_seed`) so node order cannot re-shuffle
  the draw sequence when the loop is sharded across processes;
* functions reachable from `repro.parallel` / `repro.service` worker entry
  points may only construct `RngFactory(...)` from a parameter, an attribute
  (e.g. `config.seed`) or a `derive_seed(...)` result — anything else means
  two workers can collide or diverge from the replay path.

Fix by threading a named stream (or the factory) into the drawing code;
suppress only where a constant seed is the documented intent (e.g. a
fallback generator that never feeds simulation state).
"""

    def run(self, project: Project, engine: SummaryEngine) -> list[Finding]:
        findings: list[Finding] = []
        for fn in project.iter_functions():
            if fn.module.name == "repro.rng":
                continue
            findings.extend(self._literal_factories(fn))
            findings.extend(self._draw_provenance(project, fn))
            findings.extend(self._shared_stream_loops(project, fn))
        findings.extend(self._worker_paths(project))
        return findings

    # -- RngFactory(<literal>) ------------------------------------------------

    def _literal_factories(self, fn: FunctionInfo) -> list[Finding]:
        out: list[Finding] = []
        for node in _walk_no_nested(fn.node):
            if not isinstance(node, ast.Call):
                continue
            chain = attr_chain(node.func)
            if not chain or chain[-1] != "RngFactory" or not node.args:
                continue
            seed = node.args[0]
            if isinstance(seed, ast.Constant) and isinstance(seed.value, int):
                out.append(_finding(
                    self.code, fn.module, node,
                    f"RngFactory seeded with literal {seed.value!r} in "
                    f"{fn.qualname}: generators must derive from the scenario "
                    "seed (accept a factory/stream argument or use "
                    "derive_seed)",
                ))
        return out

    # -- draw receiver provenance --------------------------------------------

    def _draw_provenance(self, project: Project, fn: FunctionInfo) -> list[Finding]:
        out: list[Finding] = []
        env = method_env(project, fn)
        for node in _walk_no_nested(fn.node):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in DRAW_METHODS
            ):
                continue
            receiver = node.func.value
            if is_stream_call(receiver):
                continue
            chain = attr_chain(receiver)
            if chain is None:
                continue
            prov = env.receiver_provenance(receiver)
            if prov in (STREAM, PARAM):
                continue
            rng_ish = rng_like_name(chain[-1])
            if prov == DEFAULT_RNG:
                out.append(_finding(
                    self.code, fn.module, node,
                    f"draw `{'.'.join(chain)}.{node.func.attr}()` in "
                    f"{fn.qualname} uses an ambient default_rng/RandomState, "
                    "not a named RngFactory stream",
                ))
            elif prov == UNKNOWN and rng_ish:
                out.append(_finding(
                    self.code, fn.module, node,
                    f"draw `{'.'.join(chain)}.{node.func.attr}()` in "
                    f"{fn.qualname} cannot be traced to a named "
                    "RngFactory.stream(...) or a Generator parameter",
                ))
        return out

    # -- streams shared across per-node loops ----------------------------------

    def _shared_stream_loops(self, project: Project, fn: FunctionInfo) -> list[Finding]:
        out: list[Finding] = []
        env = method_env(project, fn)
        for loop in _walk_no_nested(fn.node):
            if not isinstance(loop, ast.For):
                continue
            if not self._iterates_nodes(loop.iter):
                continue
            loop_end = getattr(loop, "end_lineno", loop.lineno) or loop.lineno
            for node in ast.walk(loop):
                if not (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in DRAW_METHODS
                ):
                    continue
                receiver = node.func.value
                site = self._stream_site(env, receiver)
                if site is None:
                    continue
                site_line = getattr(site, "lineno", 0)
                inside = loop.lineno <= site_line <= loop_end
                if inside or self._stream_is_per_entity(site, loop):
                    continue
                out.append(_finding(
                    self.code, fn.module, node,
                    f"stream drawn inside a per-node loop in {fn.qualname} is "
                    "created once outside the loop under a constant name; "
                    "per-node draws need per-node streams (name the stream "
                    "per node id or derive_seed per node) or the loop cannot "
                    "be sharded deterministically",
                ))
        return out

    def _iterates_nodes(self, iter_expr: ast.expr) -> bool:
        for node in ast.walk(iter_expr):
            if isinstance(node, ast.Name) and node.id in {"nodes", "node_ids"}:
                return True
            if isinstance(node, ast.Attribute) and node.attr in {"nodes", "node_ids"}:
                return True
        return False

    def _stream_site(self, env: RngEnv, receiver: ast.expr) -> ast.expr | None:
        """The `.stream(...)` call that bound *receiver*, if traceable."""
        if isinstance(receiver, ast.Name):
            if env.locals.get(receiver.id) != STREAM:
                return None
            return env.local_sites.get(receiver.id)
        return None

    def _stream_is_per_entity(self, site: ast.expr, loop: ast.For) -> bool:
        """Stream name varies per iteration (f-string / format / concat)?"""
        if not (isinstance(site, ast.Call) and site.args):
            return True  # unnamed / dynamic: give the benefit of the doubt
        name_arg = site.args[0]
        return not isinstance(name_arg, ast.Constant)

    # -- worker reachability ---------------------------------------------------

    WORKER_MODULE_PREFIXES = ("repro.parallel", "repro.service")

    def _worker_paths(self, project: Project) -> list[Finding]:
        roots: list[FunctionInfo] = []
        for module in project.modules.values():
            if module.name.startswith(self.WORKER_MODULE_PREFIXES):
                roots.extend(module.functions.values())
                for cls in module.classes.values():
                    roots.extend(cls.methods.values())
        visited: dict[str, FunctionInfo] = {}
        queue = list(roots)
        depth = 0
        while queue and depth < 8:
            next_queue: list[FunctionInfo] = []
            for fn in queue:
                if fn.qualname in visited:
                    continue
                visited[fn.qualname] = fn
                for node in ast.walk(fn.node):
                    if isinstance(node, ast.Call):
                        callee = project.resolve_call(fn, node)
                        if callee is not None and callee.qualname not in visited:
                            next_queue.append(callee)
            queue = next_queue
            depth += 1
        out: list[Finding] = []
        for fn in visited.values():
            if fn.module.name == "repro.rng":
                continue
            out.extend(self._underived_factories(fn))
        return out

    def _underived_factories(self, fn: FunctionInfo) -> list[Finding]:
        derived: set[str] = set()
        params = set(fn.params)
        for node in _walk_no_nested(fn.node):
            if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
                chain = attr_chain(node.value.func)
                if chain and chain[-1] == "derive_seed":
                    for target in node.targets:
                        if isinstance(target, ast.Name):
                            derived.add(target.id)
        out: list[Finding] = []
        for node in _walk_no_nested(fn.node):
            if not isinstance(node, ast.Call):
                continue
            chain = attr_chain(node.func)
            if not chain or chain[-1] != "RngFactory":
                continue
            if not node.args:
                out.append(_finding(
                    self.code, fn.module, node,
                    f"RngFactory() without a seed on a worker path "
                    f"({fn.qualname}): workers must derive their seed with "
                    "derive_seed(...)",
                ))
                continue
            seed = node.args[0]
            ok = (
                isinstance(seed, ast.Attribute)
                or isinstance(seed, ast.Subscript)
                or (isinstance(seed, ast.Name) and (
                    seed.id in params or seed.id in derived
                ))
                or (isinstance(seed, ast.Call) and (
                    (attr_chain(seed.func) or [""])[-1] in {"derive_seed", "int"}
                ))
            )
            # literal seeds are already covered by the literal-factory check
            if isinstance(seed, ast.Constant):
                ok = True
            if not ok:
                out.append(_finding(
                    self.code, fn.module, node,
                    f"RngFactory seed on a worker path ({fn.qualname}) is "
                    "neither a parameter, an attribute, nor a "
                    "derive_seed(...) result — replayed workers may diverge",
                ))
        return out


# ---------------------------------------------------------------------------
# REP102 — order-sensitivity taint
# ---------------------------------------------------------------------------

#: Call names whose result iteration order is filesystem-dependent.
FS_ORDER_SOURCES = frozenset({
    "listdir", "scandir", "walk", "glob", "iglob", "rglob", "iterdir",
})

#: Calls that consume an iterable without exposing its order downstream.
CONSUMING_SANITIZERS = frozenset({
    "sorted", "min", "max", "sum", "len", "any", "all", "set", "frozenset",
})

#: In-place methods that are order-safe on an unordered receiver.
SET_SAFE_MUTATORS = frozenset({"add", "discard", "remove", "update", "clear"})


class _OrderEnv:
    """Set-typedness and taint for the locals of one function."""

    def __init__(self, project: Project, fn: FunctionInfo) -> None:
        self.project = project
        self.fn = fn
        self.set_locals: set[str] = set()
        self.tainted: set[str] = set()
        for name in fn.params:
            annotation = fn.param_annotation(name)
            if annotation is not None:
                head = annotation.split("[", 1)[0].strip().lower()
                if head in {"set", "frozenset", "abstractset", "mutableset"}:
                    self.set_locals.add(name)

    # -- typedness -----------------------------------------------------------

    def is_set_expr(self, expr: ast.expr) -> bool:
        if isinstance(expr, ast.Name):
            return expr.id in self.set_locals
        if isinstance(expr, (ast.Set, ast.SetComp)):
            return True
        if isinstance(expr, ast.BinOp) and isinstance(
            expr.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
        ):
            return self.is_set_expr(expr.left) or self.is_set_expr(expr.right)
        if isinstance(expr, ast.Attribute):
            return self._attr_is_set(expr)
        if isinstance(expr, ast.Call):
            chain = attr_chain(expr.func)
            if chain is None:
                return False
            if chain[-1] in {"set", "frozenset"}:
                return True
            if chain[-1] in {
                "intersection", "union", "difference", "symmetric_difference",
            }:
                return self.is_set_expr(expr.func.value) if isinstance(
                    expr.func, ast.Attribute
                ) else False
            return self._call_returns_set(expr, chain)
        return False

    def _attr_is_set(self, expr: ast.Attribute) -> bool:
        chain = attr_chain(expr)
        if chain is None:
            return False
        if chain[0] == "self" and len(chain) == 2 and self.fn.cls is not None:
            kind = self._class_attr_kind(self.fn.cls, chain[1])
            if kind is not None:
                return kind == "set"
        # Foreign attribute: unanimous verdict across every class defining it.
        kinds: set[str] = set()
        for cls_list in self.project.classes_by_name.values():
            for cls in cls_list:
                kind = cls.attr_kinds.get(chain[-1])
                if kind is not None and kind != "other":
                    kinds.add(kind)
        return kinds == {"set"}

    def _class_attr_kind(self, cls: ClassInfo, attr: str) -> str | None:
        seen: set[str] = set()
        queue = [cls]
        while queue:
            cur = queue.pop(0)
            if cur.qualname in seen:
                continue
            seen.add(cur.qualname)
            if attr in cur.attr_kinds:
                return cur.attr_kinds[attr]
            for base in cur.bases:
                queue.extend(self.project.classes_by_name.get(base, []))
        return None

    def _call_returns_set(self, call: ast.Call, chain: list[str]) -> bool:
        callee = self.project.resolve_call(self.fn, call)
        if callee is not None:
            return _returns_set_annotation(callee.node)
        candidates = self.project.method_candidates(chain[-1])
        if not candidates:
            return False
        verdicts = {_returns_set_annotation(c.node) for c in candidates}
        return verdicts == {True}

    # -- taint ---------------------------------------------------------------

    def is_tainted(self, expr: ast.expr) -> bool:
        """Does iterating *expr* expose nondeterministic order?

        Dict views are *not* tainted: per the snapshot contract, dicts are
        insertion-ordered deterministic state (capture.py preserves their
        order); only hash-ordered sets and filesystem listings are sources.
        """
        if isinstance(expr, ast.Name):
            return expr.id in self.tainted or expr.id in self.set_locals
        if self.is_set_expr(expr):
            return True
        if isinstance(expr, ast.Call):
            chain = attr_chain(expr.func)
            if chain is None:
                return False
            if chain[-1] in FS_ORDER_SOURCES:
                return True
            if chain[-1] in CONSUMING_SANITIZERS and chain[-1] not in {
                "set", "frozenset"
            }:
                return False
            if chain[-1] in {"keys", "values", "items"}:
                return False  # insertion-order sanitizer model
        if isinstance(expr, ast.BinOp):
            return self.is_set_expr(expr)
        return False

    def note_assign(self, target: ast.expr, value: ast.expr) -> None:
        if not isinstance(target, ast.Name):
            return
        if self.is_set_expr(value):
            self.set_locals.add(target.id)
            self.tainted.discard(target.id)
        elif self.is_tainted(value):
            self.tainted.add(target.id)
        else:
            self.set_locals.discard(target.id)
            self.tainted.discard(target.id)


class Rep102OrderTaint:
    code = "REP102"
    title = "unordered iteration order must not flow into simulator state"
    explain = """\
Sets iterate in hash order, which varies with PYTHONHASHSEED and between
processes; `os.listdir`/`glob` iterate in filesystem order.  If that order
reaches simulator state — buffer contents, link transitions, RNG draws,
emitted events, dict insertion order — two runs of the same seed diverge.
`repro.world.world.routing_phase` is the in-tree case: the due set keeps
its awake node ids as a set, and the idle-sender loop starts transfers
node by node, so it walks `sorted(due.awake)`.  (`World` keeps its links
as a sorted key array instead, so its link events fire in key order.)

The taint model: iterating a set-typed expression (inferred from literals,
annotations, `set()` constructors, set operators, class attribute types and
`-> set[...]` return annotations) or a filesystem listing is tainted.
`sorted(...)` (and the other order-consuming builtins: `min`, `max`, `sum`,
`len`, `any`, `all`) sanitizes.  Dict views are modeled as *insertion-order
deterministic* per the snapshot contract — the capture codec preserves dict
order, so it is state, not noise.  A tainted loop is reported when its body
writes attributes or subscripts, calls a project function whose summary
mutates state, draws from an RNG, emits/schedules events, or yields;
building an ordered sequence (`list(...)`, `tuple(...)`, a list
comprehension) or a dict from a tainted iteration is reported at the
materialization site.

Fix with `sorted(...)` at the iteration site (the repo's convention — see
`routing_phase`), or restructure so the loop only builds
unordered results (set/counter accumulation is safe and not flagged).
"""

    def run(self, project: Project, engine: SummaryEngine) -> list[Finding]:
        findings: list[Finding] = []
        for fn in project.iter_functions():
            findings.extend(self._check_function(project, engine, fn))
        return findings

    def _check_function(
        self, project: Project, engine: SummaryEngine, fn: FunctionInfo
    ) -> list[Finding]:
        env = _OrderEnv(project, fn)
        out: list[Finding] = []
        sanitizer_args: set[int] = set()
        for node in _walk_no_nested(fn.node):
            if isinstance(node, ast.Call):
                chain = attr_chain(node.func)
                if chain and chain[-1] in CONSUMING_SANITIZERS:
                    for arg in node.args:
                        sanitizer_args.add(id(arg))
        for node in self._statements_in_order(fn.node):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    env.note_assign(target, node.value)
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                env.note_assign(node.target, node.value)
            elif isinstance(node, ast.For):
                if env.is_tainted(node.iter):
                    sink = self._find_sink(project, engine, env, node)
                    if sink is not None:
                        out.append(_finding(
                            self.code, fn.module, node,
                            f"iteration order of an unordered collection in "
                            f"{fn.qualname} flows into {sink} — wrap the "
                            "iterable in sorted(...) or accumulate into an "
                            "unordered result",
                        ))
        out.extend(self._materializations(fn, env, sanitizer_args))
        return out

    def _statements_in_order(self, node: FunctionNode) -> list[ast.stmt]:
        """All statements in source order, skipping nested defs."""
        out: list[ast.stmt] = []
        def visit(body: list[ast.stmt]) -> None:
            for stmt in body:
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    continue
                out.append(stmt)
                for field_name in ("body", "orelse", "finalbody"):
                    inner = getattr(stmt, field_name, None)
                    if isinstance(inner, list):
                        visit(inner)
                for handler in getattr(stmt, "handlers", []) or []:
                    visit(handler.body)
        visit(list(node.body))
        out.sort(key=lambda s: (s.lineno, s.col_offset))
        return out

    # -- sink detection --------------------------------------------------------

    def _find_sink(
        self,
        project: Project,
        engine: SummaryEngine,
        env: _OrderEnv,
        loop: ast.For,
    ) -> str | None:
        """First order-sensitive effect in a tainted loop body, or None."""
        body_nodes: list[ast.AST] = []
        for stmt in loop.body + loop.orelse:
            body_nodes.extend(_walk_no_nested(stmt))
        for node in body_nodes:
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    sink = self._assignment_sink(env, target)
                    if sink is not None:
                        return sink
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                sink = self._assignment_sink(env, node.target)
                if sink is not None:
                    return sink
            elif isinstance(node, ast.AugAssign):
                if isinstance(node.target, (ast.Attribute, ast.Subscript)):
                    return "augmented state update (order-dependent accumulation)"
                if isinstance(node.target, ast.Name) and not isinstance(
                    node.value, ast.Constant
                ):
                    return (
                        f"accumulation into `{node.target.id}` (float addition "
                        "is order-sensitive)"
                    )
            elif isinstance(node, (ast.Yield, ast.YieldFrom)):
                return "yielded output order"
            elif isinstance(node, ast.Call):
                sink = self._call_sink(project, engine, env, node)
                if sink is not None:
                    return sink
        return None

    def _assignment_sink(self, env: _OrderEnv, target: ast.expr) -> str | None:
        if isinstance(target, ast.Attribute):
            chain = attr_chain(target)
            return f"attribute state `{'.'.join(chain or ['?'])}`"
        if isinstance(target, ast.Subscript):
            base = target.value
            if env.is_set_expr(base):
                return None  # cannot subscript a set; treat as unknown-safe
            chain = attr_chain(base)
            name = ".".join(chain) if chain else "container"
            return f"subscript store into `{name}` (insertion order becomes state)"
        return None

    def _call_sink(
        self,
        project: Project,
        engine: SummaryEngine,
        env: _OrderEnv,
        call: ast.Call,
    ) -> str | None:
        func = call.func
        if isinstance(func, ast.Attribute):
            if func.attr in SET_SAFE_MUTATORS and env.is_set_expr(func.value):
                return None
            if func.attr in DRAW_METHODS:
                menv = method_env(project, env.fn)
                prov = menv.receiver_provenance(func.value)
                chain = attr_chain(func.value)
                if prov != UNKNOWN or (chain and rng_like_name(chain[-1])):
                    return "RNG consumption (draw order becomes stream state)"
        chain = attr_chain(func)
        if chain is None:
            return None
        if chain[-1] in CONSUMING_SANITIZERS:
            return None
        if engine.call_mutates(env.fn, call):
            return f"state-mutating call `{'.'.join(chain)}(...)`"
        return None

    # -- ordered materializations ---------------------------------------------

    def _materializations(
        self, fn: FunctionInfo, env: _OrderEnv, sanitizer_args: set[int]
    ) -> list[Finding]:
        out: list[Finding] = []
        for node in _walk_no_nested(fn.node):
            if isinstance(node, ast.Call):
                chain = attr_chain(node.func)
                if (
                    chain
                    and chain[-1] in {"list", "tuple", "enumerate", "join"}
                    and node.args
                    and env.is_tainted(node.args[0])
                    and id(node) not in sanitizer_args
                ):
                    out.append(_finding(
                        self.code, fn.module, node,
                        f"`{chain[-1]}(...)` in {fn.qualname} materializes an "
                        "ordered sequence from an unordered iterable — sort "
                        "first (sorted(...)) so the order is reproducible",
                    ))
            elif isinstance(node, (ast.ListComp, ast.DictComp, ast.GeneratorExp)):
                if id(node) in sanitizer_args:
                    continue
                gen = node.generators[0]
                if env.is_tainted(gen.iter):
                    what = {
                        ast.ListComp: "a list",
                        ast.DictComp: "a dict (insertion order becomes state)",
                        ast.GeneratorExp: "an ordered stream",
                    }[type(node)]
                    out.append(_finding(
                        self.code, fn.module, node,
                        f"comprehension in {fn.qualname} builds {what} from an "
                        "unordered iteration — iterate sorted(...) instead",
                    ))
        return out


# ---------------------------------------------------------------------------
# REP103 — snapshot coverage drift
# ---------------------------------------------------------------------------

#: (class name, attribute) pairs that are deliberately NOT captured because
#: restore rebuilds them.  Every entry is part of the snapshot contract:
#: adding one requires explaining *how* restore reconstructs the value.
REBUILT_ON_RESTORE: dict[tuple[str, str], str] = {
    ("Simulator", "_running"): "loop-transient; always False between events",
    ("World", "positions"): "recomputed from mobility._pos by advance() on restore",
    ("KDTreeDetector", "_anchor"): "candidate-list cache; a restored World builds a fresh detector, whose first call rebuilds it, and the cache never changes a result",
    ("KDTreeDetector", "_radius"): "candidate-list cache; a restored World builds a fresh detector, whose first call rebuilds it, and the cache never changes a result",
    ("KDTreeDetector", "_skin"): "skin of the last rebuild; a restored World builds a fresh detector, whose first call rebuilds and sizes it from that call's drift",
    ("KDTreeDetector", "_keys"): "candidate-list cache; a restored World builds a fresh detector, whose first call rebuilds it, and the cache never changes a result",
    ("KDTreeDetector", "_ends"): "candidate-list cache; a restored World builds a fresh detector, whose first call rebuilds it, and the cache never changes a result",
    ("KDTreeDetector", "_drift"): "drift sum since the last rebuild; a restored World builds a fresh detector, whose first call rebuilds and zeroes it",
    ("KDTreeDetector", "_inside"): "in-range mask of the candidates; a restored World builds a fresh detector, whose first call rebuilds it with the candidates",
    ("KDTreeDetector", "_found"): "the detector's previous result; a restored World builds a fresh detector, whose first call rebuilds it, and the world diffs that tick by sorted keys",
    ("KDTreeDetector", "_flips"): "flips of the last call; a fresh detector has none, so the restored World's first tick diffs by sorted keys",
    ("World", "_moved_at"): "time of the last tick's positions, which restore sets to the restored mobility model's time (positions are advanced to it)",
    ("TaxiFleet", "_cdf"): "the fare draw's cdf, derived from the captured _weights; restore sets both through set_weights()",
    ("EventQueue", "_heap"): "event queue is re-armed from recurring/transfer state",
    ("EventQueue", "_live"): "event queue is re-armed from recurring/transfer state",
    ("Event", "cancelled"): "events are not serialized; the queue is re-armed",
    ("PhaseProfiler", "_stack"): "empty between events (snapshots run between events)",
    ("Simulator", "queue"): "event queue is re-armed from recurring/transfer/generator cursors",
    ("DroppedListStore", "_own"): "alias of _records[own id]; captured through _records",
    ("DroppedListStore", "_counts"): "d_i per message; load() recounts it from the captured records",
    ("DroppedListStore", "next_expiry"): "lower bound on stored expiries; load() re-derives it from the captured records",
    ("Sanitizer", "_dropped_verified"): "recount memo; empty in the rebuilt sanitizer, so its first check recounts every store",
    ("SdsrpPolicy", "_n_nodes"): "re-derived from the buffer by attach() on rebuild",
    ("SdsrpPolicy", "_node_id"): "the host node's id; attach() re-reads it from ctx.node on rebuild",
    ("ContactReport", "_sim"): "wiring: the rebuilt scenario's subscribe() binds the new simulator",
    ("MetricsCollector", "_sim"): "wiring: the rebuilt scenario's subscribe() binds the new simulator",
    ("TimeSeriesCollector", "_sim"): "wiring: the rebuilt scenario's subscribe() binds the new simulator",
    ("EventTrace", "_sim"): "wiring: the rebuilt scenario's subscribe() binds the new simulator",
    ("MessageFateReport", "_sim"): "opt-in post-run report, never part of a snapshot-capable run",
    ("ListenerRegistry", "_listeners"): "subscriptions re-created by build_scenario wiring",
    ("FaultInjector", "_started"): "start() re-subscribes on restore; guard only blocks double-wiring",
    ("MessageBuffer", "_used"): "re-accumulated as restore re-adds the captured messages",
    ("MessageBuffer", "_pins"): "pins re-established when in-flight transfers re-arm",
    ("MessageBuffer", "next_expiry"): "lower bound on stored expiries; re-derived by add() as restore re-adds the captured messages",
    ("Node", "asleep"): "send-scan memo; restored nodes start awake and their first tick's rescan finds exactly what the memo skipped: nothing",
    ("Node", "due"): "re-bound when the rebuilt world builds its DueSet",
    ("DueSet", "awake"): "ids of the nodes not asleep; the rebuilt world's DueSet starts with every node, as restored nodes start awake",
    ("DueSet", "min_expiry"): "lower bound on the buffers' expiry bounds; the rebuilt world's DueSet derives it from its buffers, and their on_expiry hook lowers it as restore re-adds the captured messages",
    ("MessageBuffer", "on_expiry"): "hook re-installed when the rebuilt world builds its DueSet",
    ("RandomPolicy", "_rng"): "stream re-bound by attach(); state travels with RngFactory state_dict",
    ("MessageFateReport", "fates"): "opt-in post-run report, never part of a snapshot-capable run",
    ("PeriodicSnapshotter", "latest"): "holds the snapshot payload itself; only _next_at is state",
}


class Rep103SnapshotDrift:
    code = "REP103"
    title = "mutable simulator state must be captured by repro.snapshot"
    explain = """\
`repro.snapshot.capture.save` must read *every* mutable attribute of every
simulator-reachable class, or a snapshot/restore cycle silently resets the
missed field and the restored run diverges from the uninterrupted one —
usually long after the restore, where the chaos harness has to bisect it.

This rule diffs two sets computed statically:

* **mutable state**: attributes of classes in the simulator-state modules
  (engine, world, net, routing, policies, mobility, reports, obs, core,
  faults, sanitizer) that are assigned or mutated in place outside
  `__init__`/`__post_init__`;
* **captured fields**: attribute names read (transitively, through
  property accessors and helper methods like `Buffer.messages`) by the
  functions of `repro.snapshot.capture`.

Anything mutable-but-not-captured is reported at its first mutation site.
Attributes that restore legitimately *rebuilds* instead of deserializing
(the event queue, callback closures, derived position arrays) are listed in
`REBUILT_ON_RESTORE` with a justification — extend that table (or add an
inline `# reprolint: disable=REP103` at the mutation site) only when you
can explain how restore reconstructs the value byte-identically.
"""

    STATE_MODULE_PREFIXES = (
        "repro.engine", "repro.world", "repro.net", "repro.routing",
        "repro.policies", "repro.mobility", "repro.reports", "repro.obs",
        "repro.core", "repro.faults", "repro.analysis.sanitizer",
        "repro.snapshot.snapshotter",
    )
    INIT_METHODS = frozenset({"__init__", "__post_init__", "__new__"})

    def run(self, project: Project, engine: SummaryEngine) -> list[Finding]:
        capture = None
        for module in project.modules.values():
            if module.name.endswith("snapshot.capture"):
                capture = module
                break
        if capture is None:
            return []
        covered = self._coverage(project, engine, capture)
        findings: list[Finding] = []
        for module in project.modules.values():
            if not module.name.startswith(self.STATE_MODULE_PREFIXES):
                continue
            for cls in module.classes.values():
                if self._exempt_class(cls):
                    continue
                findings.extend(self._check_class(project, cls, covered))
        return findings

    def _exempt_class(self, cls: ClassInfo) -> bool:
        if cls.name.endswith(("Error", "Exception", "Warning")):
            return True
        for base in cls.bases:
            if base.endswith(("Error", "Exception", "Warning", "Enum", "Protocol", "ABC")):
                return True
        return False

    def _coverage(
        self, project: Project, engine: SummaryEngine, capture: ModuleInfo
    ) -> set[str]:
        roots: list[FunctionInfo] = list(capture.functions.values())
        for cls in capture.classes.values():
            roots.extend(cls.methods.values())
        covered: set[str] = set()
        for fn in roots:
            covered |= engine.summary(fn).reads
        # Bare-name method calls in the capture module pull in the reads of
        # every project method with that name (e.g. `node.buffer.messages()`
        # covers Buffer._messages).
        called: set[str] = set()
        for fn in roots:
            for node in ast.walk(fn.node):
                if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                    called.add(node.func.attr)
        for name in called:
            for candidate in project.method_candidates(name):
                covered |= engine.summary(candidate).reads
        # Property expansion to fixpoint: reading a property covers the
        # attributes its getter reads.
        for _ in range(4):
            grew = False
            for name in list(covered):
                for candidate in project.method_candidates(name):
                    if self._is_property(candidate):
                        reads = engine.summary(candidate).reads
                        if not reads <= covered:
                            covered |= reads
                            grew = True
            if not grew:
                break
        return covered

    def _is_property(self, fn: FunctionInfo) -> bool:
        for deco in fn.node.decorator_list:
            chain = attr_chain(deco)
            if chain and chain[-1] in {"property", "cached_property"}:
                return True
        return False

    def _check_class(
        self, project: Project, cls: ClassInfo, covered: set[str]
    ) -> list[Finding]:
        out: list[Finding] = []
        for attr, sites in sorted(cls.attr_sites.items()):
            if attr.startswith("__"):
                continue
            if attr in covered:
                continue
            if (cls.name, attr) in REBUILT_ON_RESTORE:
                continue
            mutable_sites = [
                s for s in sites if s.method not in self.INIT_METHODS
            ]
            if not mutable_sites:
                continue
            if self._only_callable_values(cls, attr):
                continue
            site = min(mutable_sites, key=lambda s: (s.line, s.col))
            node = _FakeNode(site.line, site.col)
            out.append(_finding(
                self.code, cls.module, node,
                f"mutable attribute {cls.name}.{attr} (written in "
                f"{site.method}) is never read by repro.snapshot.capture — "
                "snapshot/restore silently resets it; capture it or register "
                "it in REBUILT_ON_RESTORE with a rebuild justification",
                attribute=attr, cls=cls.qualname,
            ))
        return out

    def _only_callable_values(self, cls: ClassInfo, attr: str) -> bool:
        """Attr only ever holds lambdas/functions (callback wiring, never
        serialized per the capture contract)."""
        assigned: list[ast.expr] = []
        for method in cls.methods.values():
            for node in ast.walk(method.node):
                if isinstance(node, ast.Assign):
                    for target in node.targets:
                        if attr_chain(target) == ["self", attr]:
                            assigned.append(node.value)
        return bool(assigned) and all(
            isinstance(v, ast.Lambda)
            or (isinstance(v, ast.Attribute) and v.attr.startswith("_on"))
            for v in assigned
        )


class _FakeNode(ast.AST):
    """Line/col carrier for findings anchored at recorded sites."""

    def __init__(self, lineno: int, col_offset: int) -> None:
        super().__init__()
        self.lineno = lineno
        self.col_offset = col_offset


# ---------------------------------------------------------------------------
# REP104 — observer purity
# ---------------------------------------------------------------------------

#: Registration calls an observer may make on foreign objects during wiring.
REGISTRATION_CALLS = frozenset({
    "subscribe", "unsubscribe", "schedule_every", "schedule_at", "schedule_in",
    "register",
})


class Rep104ObserverPurity:
    code = "REP104"
    title = "repro.obs call graphs must be observation-only"
    explain = """\
Enabling an observer (trace ring, time-series collector, profiler) must not
change any simulation outcome — the determinism suite compares observed and
unobserved runs byte-for-byte, but only for the scenarios it runs.  This
rule proves the property statically for *all* code paths: a function in
`repro.obs` may write to `self`, to locals it created, and to parameters
annotated with an obs-defined type; it may call the simulator's
registration API (`subscribe`, `schedule_every`, ...) during wiring; and it
may call other obs/stdlib functions.  Everything else — assigning to a
foreign object's attributes, calling a mutator method (`append`, `update`,
...) on a non-obs receiver, or calling a project function whose summary
says it mutates state — is a purity violation.

If an observer legitimately needs a new foreign interaction, route it
through the listener registry (events are one-directional) rather than
suppressing: a suppressed write here turns the observation-only test into
a lie.
"""

    def run(self, project: Project, engine: SummaryEngine) -> list[Finding]:
        obs_classes = {
            cls.name
            for module in project.modules.values()
            if module.name.startswith("repro.obs")
            for cls in module.classes.values()
        }
        findings: list[Finding] = []
        for module in project.modules.values():
            if not module.name.startswith("repro.obs"):
                continue
            roots: list[FunctionInfo] = list(module.functions.values())
            for cls in module.classes.values():
                roots.extend(cls.methods.values())
            for fn in roots:
                findings.extend(
                    self._check_function(project, engine, fn, obs_classes)
                )
        return findings

    def _check_function(
        self,
        project: Project,
        engine: SummaryEngine,
        fn: FunctionInfo,
        obs_classes: set[str],
    ) -> list[Finding]:
        out: list[Finding] = []
        safe_roots = {"self"} | self._safe_params(fn, obs_classes)
        local_names = set(safe_roots)
        for node in self._ordered_nodes(fn):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    out.extend(self._check_write(fn, target, local_names))
                    self._note_locals(target, local_names)
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                out.extend(self._check_write(fn, node.target, local_names))
                self._note_locals(node.target, local_names)
            elif isinstance(node, ast.AugAssign):
                out.extend(self._check_write(fn, node.target, local_names))
            elif isinstance(node, (ast.For, ast.comprehension)):
                target = node.target
                self._note_locals(target, local_names)
            elif isinstance(node, ast.With):
                for item in node.items:
                    if item.optional_vars is not None:
                        self._note_locals(item.optional_vars, local_names)
            elif isinstance(node, ast.Call):
                out.extend(
                    self._check_call(project, engine, fn, node, local_names)
                )
        return out

    def _ordered_nodes(self, fn: FunctionInfo) -> list[ast.AST]:
        nodes = [n for n in _walk_no_nested(fn.node) if n is not fn.node]
        nodes.sort(key=lambda n: (
            getattr(n, "lineno", 0), getattr(n, "col_offset", 0)
        ))
        return nodes

    def _safe_params(self, fn: FunctionInfo, obs_classes: set[str]) -> set[str]:
        safe: set[str] = set()
        for name in fn.params:
            annotation = fn.param_annotation(name)
            if annotation is None:
                continue
            heads = {
                part.strip().split("[", 1)[0].split(".")[-1]
                for part in annotation.replace("Optional", "")
                .strip("[]").split("|")
            }
            if heads & obs_classes:
                safe.add(name)
        return safe

    def _note_locals(self, target: ast.expr, local_names: set[str]) -> None:
        if isinstance(target, ast.Name):
            local_names.add(target.id)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._note_locals(elt, local_names)

    def _root(self, expr: ast.expr) -> str | None:
        chain = attr_chain(expr)
        return chain[0] if chain else None

    def _check_write(
        self, fn: FunctionInfo, target: ast.expr, local_names: set[str]
    ) -> list[Finding]:
        if isinstance(target, ast.Name):
            return []
        if isinstance(target, (ast.Tuple, ast.List)):
            out: list[Finding] = []
            for elt in target.elts:
                out.extend(self._check_write(fn, elt, local_names))
            return out
        root = self._root(target)
        if root is None or root in local_names:
            return []
        chain = attr_chain(target) or [root]
        return [_finding(
            self.code, fn.module, target,
            f"observer {fn.qualname} writes to foreign state "
            f"`{'.'.join(chain)}` — observers may only mutate themselves "
            "and their own locals",
        )]

    def _check_call(
        self,
        project: Project,
        engine: SummaryEngine,
        fn: FunctionInfo,
        call: ast.Call,
        local_names: set[str],
    ) -> list[Finding]:
        func = call.func
        if isinstance(func, ast.Attribute):
            if func.attr in REGISTRATION_CALLS:
                return []
            if func.attr in MUTATOR_METHODS:
                root = self._root(func.value)
                if root is not None and root not in local_names:
                    chain = attr_chain(func) or [func.attr]
                    return [_finding(
                        self.code, fn.module, call,
                        f"observer {fn.qualname} calls mutator "
                        f"`{'.'.join(chain)}(...)` on a foreign object — "
                        "observers must not mutate non-obs state",
                    )]
                return []
        callee = project.resolve_call(fn, call)
        if (
            callee is not None
            and not callee.module.name.startswith("repro.obs")
            and engine.summary(callee).mutates
        ):
            return [_finding(
                self.code, fn.module, call,
                f"observer {fn.qualname} calls {callee.qualname}, whose "
                "summary mutates simulation state — observers must stay "
                "read-only",
            )]
        return []


ALL_DEEP_RULES = (
    Rep101RngProvenance,
    Rep102OrderTaint,
    Rep103SnapshotDrift,
    Rep104ObserverPurity,
)
