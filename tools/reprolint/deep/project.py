"""Whole-program module/symbol graph for the deep analyzer.

Loads every ``*.py`` under a source root into :class:`ModuleInfo` records
(dotted module name, parsed tree, import map) and indexes classes, methods
(each with the imports its own body makes) and attribute write sites so
rules can ask cross-module questions:

* resolve a call expression to the project function(s) it may reach
  (:meth:`Project.resolve_call` / :meth:`Project.method_candidates`);
* look up a class attribute's inferred container kind (``set``/``dict``/
  ``list``) from its ``__init__`` assignments and annotations;
* enumerate every site that mutates a given attribute
  (:class:`AttrSite`, used by the snapshot-coverage rule).

Everything is stdlib-``ast`` based and best-effort: unresolvable names
return ``None``/empty rather than raising, and rules are written to fail
toward silence on unknowns (precision over recall for a lint gate).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path, PurePosixPath
from typing import Union

from reprolint.deep.findings import Finding
from reprolint.runner import _is_fixture, parse_blob

FunctionNode = Union[ast.FunctionDef, ast.AsyncFunctionDef]

#: Method names that mutate their receiver in place.
MUTATOR_METHODS = frozenset({
    "append", "extend", "insert", "add", "discard", "remove", "pop",
    "popitem", "clear", "update", "setdefault", "appendleft", "popleft",
    "push", "sort", "reverse", "heappush",
})


def attr_chain(node: ast.expr) -> list[str] | None:
    """``a.b.c`` -> ``["a", "b", "c"]``; ``None`` for non-name-rooted chains."""
    parts: list[str] = []
    cur: ast.expr = node
    while isinstance(cur, ast.Attribute):
        parts.append(cur.attr)
        cur = cur.value
    if isinstance(cur, ast.Name):
        parts.append(cur.id)
        parts.reverse()
        return parts
    return None


@dataclass
class AttrSite:
    """One write to ``self.<attr>`` inside a method."""

    attr: str
    method: str
    kind: str  # "assign" | "augassign" | "subscript" | "mutate" | "del"
    line: int
    col: int


@dataclass
class FunctionInfo:
    qualname: str
    name: str
    module: "ModuleInfo"
    node: FunctionNode
    cls: "ClassInfo | None" = None
    #: Names bound by ``import`` statements inside the body (nested
    #: functions' included), as :attr:`ModuleInfo.imports` maps them.
    imports: dict[str, str] = field(default_factory=dict)

    @property
    def params(self) -> list[str]:
        args = self.node.args
        names = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
        if args.vararg is not None:
            names.append(args.vararg.arg)
        if args.kwarg is not None:
            names.append(args.kwarg.arg)
        return names

    def param_annotation(self, name: str) -> str | None:
        args = self.node.args
        for a in args.posonlyargs + args.args + args.kwonlyargs:
            if a.arg == name and a.annotation is not None:
                return ast.unparse(a.annotation)
        return None


@dataclass
class ClassInfo:
    qualname: str
    name: str
    module: "ModuleInfo"
    node: ast.ClassDef
    bases: list[str] = field(default_factory=list)
    methods: dict[str, FunctionInfo] = field(default_factory=dict)
    #: attr -> inferred container kind ("set"/"dict"/"list"/"other"), from
    #: ``__init__``/``__post_init__`` assignments and annotations.
    attr_kinds: dict[str, str] = field(default_factory=dict)
    #: attr -> every method site that writes/mutates it.
    attr_sites: dict[str, list[AttrSite]] = field(default_factory=dict)

    def is_dataclass_like(self) -> bool:
        for deco in self.node.decorator_list:
            chain = attr_chain(deco.func if isinstance(deco, ast.Call) else deco)
            if chain and chain[-1] in {"dataclass", "total_ordering"}:
                return True
        return False


@dataclass
class ModuleInfo:
    name: str
    path: str  # normalized POSIX path relative to the project root
    file: Path
    tree: ast.Module
    lines: list[str]
    imports: dict[str, str] = field(default_factory=dict)
    functions: dict[str, FunctionInfo] = field(default_factory=dict)
    classes: dict[str, ClassInfo] = field(default_factory=dict)

    def anchor(self, line: int) -> str:
        if 1 <= line <= len(self.lines):
            return self.lines[line - 1].strip()
        return ""


def _kind_of_value(expr: ast.expr) -> str:
    """Container kind of an initializer expression."""
    if isinstance(expr, (ast.Set, ast.SetComp)):
        return "set"
    if isinstance(expr, (ast.Dict, ast.DictComp)):
        return "dict"
    if isinstance(expr, (ast.List, ast.ListComp)):
        return "list"
    if isinstance(expr, ast.Call):
        chain = attr_chain(expr.func)
        name = chain[-1] if chain else ""
        if name in {"set", "frozenset"}:
            return "set"
        if name in {"dict", "defaultdict", "OrderedDict", "Counter"}:
            return "dict"
        if name in {"list", "deque"}:
            return "list"
    return "other"


def _kind_of_annotation(annotation: ast.expr) -> str:
    text = ast.unparse(annotation)
    head = text.split("[", 1)[0].strip().lower()
    if head in {"set", "frozenset", "abstractset", "mutableset"}:
        return "set"
    if head in {"dict", "mapping", "mutablemapping", "defaultdict", "counter"}:
        return "dict"
    if head in {"list", "deque", "sequence", "mutablesequence"}:
        return "list"
    return "other"


class _ClassScanner(ast.NodeVisitor):
    """Collect attr kinds and write sites for one class body."""

    def __init__(self, cls: ClassInfo) -> None:
        self.cls = cls
        self.method = ""

    def scan_method(self, info: FunctionInfo) -> None:
        self.method = info.name
        for stmt in info.node.body:
            self.visit(stmt)

    # Nested defs belong to their own scope; don't attribute their writes
    # to the enclosing method's self (closures over self are rare and the
    # rules prefer false negatives here).
    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        return

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        return

    def _self_attr(self, expr: ast.expr) -> str | None:
        if (
            isinstance(expr, ast.Attribute)
            and isinstance(expr.value, ast.Name)
            and expr.value.id == "self"
        ):
            return expr.attr
        return None

    def _record(self, attr: str, kind: str, node: ast.AST) -> None:
        site = AttrSite(
            attr=attr,
            method=self.method,
            kind=kind,
            line=getattr(node, "lineno", 0),
            col=getattr(node, "col_offset", 0),
        )
        self.cls.attr_sites.setdefault(attr, []).append(site)

    def _record_target(self, target: ast.expr, kind: str, node: ast.AST) -> None:
        attr = self._self_attr(target)
        if attr is not None:
            self._record(attr, kind, node)
            return
        if isinstance(target, ast.Subscript):
            attr = self._self_attr(target.value)
            if attr is not None:
                self._record(attr, "subscript", node)
            return
        # self.a.b = ... mutates the object held in self.a
        if isinstance(target, ast.Attribute):
            attr = self._self_attr(target.value)
            if attr is not None:
                self._record(attr, "mutate", node)
        if isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._record_target(elt, kind, node)

    def visit_Assign(self, node: ast.Assign) -> None:
        in_init = self.method in {"__init__", "__post_init__"}
        for target in node.targets:
            attr = self._self_attr(target)
            if attr is not None and in_init and attr not in self.cls.attr_kinds:
                self.cls.attr_kinds[attr] = _kind_of_value(node.value)
            self._record_target(target, "assign", node)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        attr = self._self_attr(node.target)
        if attr is not None:
            kind = _kind_of_annotation(node.annotation)
            if kind != "other":
                self.cls.attr_kinds[attr] = kind
            else:
                self.cls.attr_kinds.setdefault(attr, kind)
            if node.value is not None:
                self._record(attr, "assign", node)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._record_target(node.target, "augassign", node)
        self.generic_visit(node)

    def visit_Delete(self, node: ast.Delete) -> None:
        for target in node.targets:
            attr = self._self_attr(target)
            if attr is not None:
                self._record(attr, "del", node)
            elif isinstance(target, ast.Subscript):
                attr = self._self_attr(target.value)
                if attr is not None:
                    self._record(attr, "subscript", node)
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        if isinstance(node.func, ast.Attribute) and node.func.attr in MUTATOR_METHODS:
            attr = self._self_attr(node.func.value)
            if attr is not None:
                self._record(attr, "mutate", node)
            elif isinstance(node.func.value, ast.Subscript):
                # self.x[k].append(...) mutates the container in self.x
                attr = self._self_attr(node.func.value.value)
                if attr is not None:
                    self._record(attr, "mutate", node)
        self.generic_visit(node)


def _module_name(rel: PurePosixPath, src_rel: str) -> str:
    parts = list(rel.parts)
    if parts and parts[0] == src_rel:
        parts = parts[1:]
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][:-3]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def _class_anno_kinds(cls_node: ast.ClassDef, cls: ClassInfo) -> None:
    """Class-level ``x: set[...] = ...`` annotations (dataclass fields)."""
    for stmt in cls_node.body:
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            cls.attr_kinds.setdefault(
                stmt.target.id, _kind_of_annotation(stmt.annotation)
            )
        elif isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    cls.attr_kinds.setdefault(target.id, _kind_of_value(stmt.value))


class Project:
    """All loaded modules plus symbol indexes and call resolution."""

    def __init__(self, root: Path) -> None:
        self.root = root
        self.modules: dict[str, ModuleInfo] = {}
        self.modules_by_path: dict[str, ModuleInfo] = {}
        self.broken: list[Finding] = []
        self.classes_by_name: dict[str, list[ClassInfo]] = {}
        self.methods_by_name: dict[str, list[FunctionInfo]] = {}

    # -- loading -------------------------------------------------------------

    def add_module(self, file: Path, path: str, name: str) -> None:
        try:
            data = file.read_bytes()
        except OSError as exc:
            self.broken.append(Finding(
                code="REP000", path=path, line=0, col=0,
                message=f"unreadable file: {exc}",
            ))
            return
        tree, violation = parse_blob(path, data)
        if tree is None:
            if violation is not None:
                self.broken.append(Finding(
                    code="REP000", path=path, line=violation.line,
                    col=violation.col, message=violation.message,
                ))
            return
        source = data.decode("utf-8")
        module = ModuleInfo(
            name=name, path=path, file=file, tree=tree,
            lines=source.splitlines(),
        )
        self._index_module(module)
        self.modules[name] = module
        self.modules_by_path[path] = module

    def _index_module(self, module: ModuleInfo) -> None:
        for stmt in module.tree.body:
            self._index_statement(module, stmt)

    def _index_statement(self, module: ModuleInfo, stmt: ast.stmt) -> None:
        if isinstance(stmt, (ast.Import, ast.ImportFrom)):
            self._bind_import(module, stmt, module.imports)
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            info = self._function(
                module, stmt, f"{module.name}.{stmt.name}", None
            )
            module.functions[stmt.name] = info
            self.methods_by_name.setdefault(stmt.name, []).append(info)
        elif isinstance(stmt, ast.ClassDef):
            self._index_class(module, stmt)
        elif isinstance(stmt, (ast.If, ast.Try)):
            for inner in ast.iter_child_nodes(stmt):
                if isinstance(inner, ast.stmt):
                    self._index_statement(module, inner)

    def _function(
        self, module: ModuleInfo, node: FunctionNode, qualname: str,
        cls: "ClassInfo | None",
    ) -> FunctionInfo:
        """A :class:`FunctionInfo` with the imports its body makes."""
        info = FunctionInfo(
            qualname=qualname, name=node.name, module=module, node=node,
            cls=cls,
        )
        for inner in ast.walk(node):
            if isinstance(inner, (ast.Import, ast.ImportFrom)):
                self._bind_import(module, inner, info.imports)
        return info

    def _bind_import(
        self, module: ModuleInfo, stmt: ast.Import | ast.ImportFrom,
        imports: dict[str, str],
    ) -> None:
        """Record the names *stmt*, in *module*, binds into *imports*."""
        if isinstance(stmt, ast.Import):
            for alias in stmt.names:
                local = alias.asname or alias.name.split(".", 1)[0]
                target = alias.name if alias.asname else alias.name.split(".", 1)[0]
                imports[local] = target
            return
        base = self._import_base(module, stmt)
        for alias in stmt.names:
            if alias.name == "*":
                continue
            local = alias.asname or alias.name
            imports[local] = f"{base}.{alias.name}" if base else alias.name

    def _import_base(self, module: ModuleInfo, stmt: ast.ImportFrom) -> str:
        if stmt.level == 0:
            return stmt.module or ""
        parts = module.name.split(".") if module.name else []
        is_package = module.path.endswith("__init__.py")
        package = parts if is_package else parts[:-1]
        if stmt.level > 1:
            package = package[: max(0, len(package) - (stmt.level - 1))]
        if stmt.module:
            package = package + stmt.module.split(".")
        return ".".join(package)

    def _index_class(self, module: ModuleInfo, stmt: ast.ClassDef) -> None:
        cls = ClassInfo(
            qualname=f"{module.name}.{stmt.name}",
            name=stmt.name, module=module, node=stmt,
        )
        for base in stmt.bases:
            chain = attr_chain(base)
            if chain:
                cls.bases.append(chain[-1])
        _class_anno_kinds(stmt, cls)
        for item in stmt.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                info = self._function(
                    module, item, f"{cls.qualname}.{item.name}", cls
                )
                cls.methods[item.name] = info
                self.methods_by_name.setdefault(item.name, []).append(info)
        scanner = _ClassScanner(cls)
        for info in cls.methods.values():
            scanner.scan_method(info)
        module.classes[stmt.name] = cls
        self.classes_by_name.setdefault(stmt.name, []).append(cls)

    # -- queries -------------------------------------------------------------

    def iter_functions(self) -> list[FunctionInfo]:
        out: list[FunctionInfo] = []
        for module in self.modules.values():
            out.extend(module.functions.values())
            for cls in module.classes.values():
                out.extend(cls.methods.values())
        return out

    def resolve_symbol(
        self, module: ModuleInfo, dotted: list[str],
        local_imports: dict[str, str] | None = None,
    ) -> FunctionInfo | ClassInfo | None:
        """Resolve a dotted name used inside *module* to a project symbol;
        *local_imports*, a function's own, shadow the module's."""
        if not dotted:
            return None
        head = dotted[0]
        target: list[str]
        if local_imports and head in local_imports:
            target = local_imports[head].split(".") + dotted[1:]
        elif head in module.imports:
            target = module.imports[head].split(".") + dotted[1:]
        elif head in module.functions and len(dotted) == 1:
            return module.functions[head]
        elif head in module.classes:
            cls = module.classes[head]
            if len(dotted) == 1:
                return cls
            if len(dotted) == 2:
                return cls.methods.get(dotted[1])
            return None
        else:
            return None
        # Longest-prefix match against loaded module names.
        for split in range(len(target), 0, -1):
            mod = self.modules.get(".".join(target[:split]))
            if mod is None:
                continue
            rest = target[split:]
            if not rest:
                return None
            if rest[0] in mod.functions and len(rest) == 1:
                return mod.functions[rest[0]]
            if rest[0] in mod.classes:
                cls = mod.classes[rest[0]]
                if len(rest) == 1:
                    return cls
                if len(rest) == 2:
                    return cls.methods.get(rest[1])
            return None
        return None

    def class_method(self, cls: ClassInfo, name: str) -> FunctionInfo | None:
        """Look up *name* on *cls* or (by bare name) its base classes."""
        seen: set[str] = set()
        queue = [cls]
        while queue:
            cur = queue.pop(0)
            if cur.qualname in seen:
                continue
            seen.add(cur.qualname)
            if name in cur.methods:
                return cur.methods[name]
            for base in cur.bases:
                queue.extend(self.classes_by_name.get(base, []))
        return None

    def resolve_call(self, fn: FunctionInfo, call: ast.Call) -> FunctionInfo | None:
        """Precisely resolve a call site (or its constructor's ``__init__``)."""
        chain = attr_chain(call.func)
        if chain is None:
            return None
        if chain[0] == "self" and fn.cls is not None and len(chain) == 2:
            return self.class_method(fn.cls, chain[1])
        symbol = self.resolve_symbol(fn.module, chain, fn.imports)
        if isinstance(symbol, FunctionInfo):
            return symbol
        if isinstance(symbol, ClassInfo):
            return symbol.methods.get("__init__")
        return None

    def method_candidates(self, name: str) -> list[FunctionInfo]:
        """All project functions/methods with this bare name (heuristic)."""
        return self.methods_by_name.get(name, [])


def load_project(root: Path, paths: list[str] | None = None, src_rel: str = "src") -> Project:
    """Load every non-fixture ``*.py`` under *root*'s source directories.

    *paths* defaults to ``["src"]`` (relative to *root*); module dotted names
    strip the leading ``src`` component, matching how the package imports.
    """
    project = Project(root)
    scan = paths if paths is not None else [src_rel]
    files: list[tuple[str, Path]] = []
    for raw in scan:
        p = root / raw if not Path(raw).is_absolute() else Path(raw)
        if p.is_dir():
            files.extend((_rel(f, root), f) for f in sorted(p.rglob("*.py")))
        elif p.is_file():
            files.append((_rel(p, root), p))
    for path, file in files:
        if _is_fixture(Path(path).parts):
            continue
        name = _module_name(PurePosixPath(path), src_rel)
        project.add_module(file, path, name)
    return project


def _rel(path: Path, root: Path) -> str:
    try:
        return str(PurePosixPath(path.resolve().relative_to(root.resolve())))
    except ValueError:
        return str(PurePosixPath(path))
