"""Shared source plumbing for the AST analyzers.

The purity (``PU``), process-safety (``PS``) and concurrency (``CN``)
analyzers read Python modules without importing them.  This module is the
one home for what they share:

* **AST helpers** — dotted names, root names, parameter lists, the names a
  function binds locally, the mapper/reducer class test;
* **loading** — :func:`load_module` parses once, keeps the lines, and turns
  a ``SyntaxError`` into a "does not parse" finding under the caller's rule
  id; :class:`SourceSet` is the module collection the PS and CN analyzers
  are built on;
* **suppression** — the ``# lint: ignore[...]`` grammar
  (:func:`line_suppresses`) and the one filter that suppresses, dedupes and
  sorts findings (:func:`filter_suppressed`);
* **task-boundary discovery** — :func:`discover_tasks`, the scoped walk that
  finds every function or lambda crossing a task boundary.

Rule-specific tables (mutator sets, copy-making calls, lock constructors)
stay with their analyzers: their contents differ on purpose.
"""

from __future__ import annotations

import ast
import pathlib
import re
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from .findings import Finding

FunctionNode = ast.FunctionDef | ast.AsyncFunctionDef

#: Parameter names that are the sanctioned task API, not data inputs.
API_PARAMS = frozenset({"self", "cls", "ctx", "context"})

#: Root of the ``repro`` package in this installation.
PACKAGE_ROOT = pathlib.Path(__file__).resolve().parent.parent


def package_files() -> list[pathlib.Path]:
    """Every module of the installed ``repro`` package, sorted.

    ``__pycache__`` is excluded: an installation can leave stale ``.py``
    artifacts there (editable installs, source-preserving bytecode caches),
    and sweeping them would lint code that no longer exists.
    """
    return sorted(
        p for p in PACKAGE_ROOT.rglob("*.py") if "__pycache__" not in p.parts
    )


# -- AST helpers -------------------------------------------------------------------


def dotted(node: ast.AST) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def root_name(node: ast.AST) -> str | None:
    """Leftmost Name of an attribute/subscript chain (``a`` in ``a.b[0].c``)."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    if isinstance(node, ast.Name):
        return node.id
    return None


def function_params(node: FunctionNode | ast.Lambda) -> list[ast.arg]:
    """Every parameter of a function or lambda, in declaration order."""
    a = node.args
    params = [*a.posonlyargs, *a.args, *a.kwonlyargs]
    if a.vararg:
        params.append(a.vararg)
    if a.kwarg:
        params.append(a.kwarg)
    return params


def function_param_names(node: FunctionNode | ast.Lambda) -> list[str]:
    return [p.arg for p in function_params(node)]


def import_names(node: ast.Import | ast.ImportFrom) -> list[str]:
    """Names an import statement binds."""
    if isinstance(node, ast.Import):
        return [(a.asname or a.name).split(".")[0] for a in node.names]
    return [a.asname or a.name for a in node.names]


class _LocalNames(ast.NodeVisitor):
    """Names a function binds locally (assignments, loops, withitems,
    imports, nested def/class names — not nested bodies)."""

    def __init__(self) -> None:
        self.names: set[str] = set()

    def visit_Name(self, node: ast.Name) -> None:
        if isinstance(node.ctx, (ast.Store, ast.Del)):
            self.names.add(node.id)

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self.names.add(node.name)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self.names.add(node.name)

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self.names.add(node.name)

    def visit_Lambda(self, node: ast.Lambda) -> None:
        pass

    def visit_Import(self, node: ast.Import | ast.ImportFrom) -> None:
        self.names.update(import_names(node))

    visit_ImportFrom = visit_Import


def local_names(fn: FunctionNode | ast.Lambda) -> set[str]:
    """Parameters plus every name ``fn``'s own body binds."""
    collector = _LocalNames()
    if not isinstance(fn, ast.Lambda):
        for stmt in fn.body:
            collector.visit(stmt)
    return collector.names | set(function_param_names(fn))


def scope_bindings(body: Iterable[ast.stmt]) -> dict[str, ast.AST]:
    """name -> value expression for simple bindings in one scope (used to
    classify what a captured name refers to).  Walks nested statements but
    not nested function/class bodies."""
    bindings: dict[str, ast.AST] = {}

    def scan(stmts: Iterable[ast.stmt]) -> None:
        for stmt in stmts:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                bindings[stmt.name] = stmt
                continue
            if isinstance(stmt, ast.Assign):
                for target in stmt.targets:
                    if isinstance(target, ast.Name):
                        bindings[target.id] = stmt.value
            elif isinstance(stmt, ast.AnnAssign):
                if isinstance(stmt.target, ast.Name) and stmt.value is not None:
                    bindings[stmt.target.id] = stmt.value
            elif isinstance(stmt, ast.With):
                for item in stmt.items:
                    if isinstance(item.optional_vars, ast.Name):
                        bindings[item.optional_vars.id] = item.context_expr
            for child_body in (
                getattr(stmt, "body", None),
                getattr(stmt, "orelse", None),
                getattr(stmt, "finalbody", None),
            ):
                if isinstance(child_body, list):
                    scan(child_body)
            for handler in getattr(stmt, "handlers", []) or []:
                scan(handler.body)

    scan(body)
    return bindings


def class_is_task(node: ast.ClassDef) -> bool:
    """A mapper/reducer by its base names or a ``map``/``map_record``/
    ``reduce`` method."""
    base_names = {
        b.id if isinstance(b, ast.Name) else getattr(b, "attr", "")
        for b in node.bases
    }
    if any("Mapper" in b or "Reducer" in b for b in base_names):
        return True
    methods = {
        stmt.name
        for stmt in node.body
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
    }
    return bool(methods & {"map", "map_record", "reduce"})


# -- loading ---------------------------------------------------------------------


@dataclass
class ModuleSource:
    """One parsed input module."""

    filename: str
    tree: ast.Module
    lines: list[str]

    def line(self, lineno: int) -> str:
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1]
        return ""


def load_module(text: str, filename: str, parse_rule: str) -> ModuleSource | Finding:
    """Parse ``text`` once; a ``SyntaxError`` becomes a ``parse_rule``
    "does not parse" finding instead."""
    try:
        tree = ast.parse(text, filename=filename)
    except SyntaxError as exc:
        return Finding.of(
            parse_rule,
            f"{filename} does not parse: {exc.msg} (line {exc.lineno})",
            location=f"{filename}:{exc.lineno or 1}",
        )
    return ModuleSource(filename, tree, text.splitlines())


class SourceSet:
    """Modules fed to a whole-set analyzer: the parsed modules, plus the
    findings of those that did not parse.  Subclasses set
    :attr:`parse_rule` and report through :attr:`findings`."""

    parse_rule: str

    def __init__(self) -> None:
        self.modules: list[ModuleSource] = []
        self.findings: list[Finding] = []

    def add_module(self, text: str, filename: str = "<string>") -> ModuleSource | None:
        loaded = load_module(text, filename, self.parse_rule)
        if isinstance(loaded, Finding):
            self.findings.append(loaded)
            return None
        self.modules.append(loaded)
        return loaded

    def add_file(self, path: str | pathlib.Path) -> None:
        path = pathlib.Path(path)
        self.add_module(path.read_text(encoding="utf-8"), str(path))

    def filtered(self) -> list[Finding]:
        """:attr:`findings` through :func:`filter_suppressed`."""
        return filter_suppressed(
            self.findings, {m.filename: m.lines for m in self.modules}
        )


# -- suppression -------------------------------------------------------------------

#: ``# lint: ignore`` as a whole word, then optionally a bracket list.
_IGNORE_RE = re.compile(r"#\s*lint:\s*ignore(?![\w-])(\s*\[)?")
#: A well-formed rule-id list: ``[PU002]``, ``[ps004, CN006]``.
_RULE_LIST_RE = re.compile(
    r"\s*\[\s*([A-Za-z]+\d+(?:\s*,\s*[A-Za-z]+\d+)*)\s*\]"
)


def line_suppresses(line: str, rule: str) -> bool:
    """Whether a ``# lint: ignore`` comment on ``line`` silences ``rule``.

    A bare comment silences every rule; a bracket list silences only the
    ids it names (case-insensitive); a malformed list silences nothing.
    """
    match = _IGNORE_RE.search(line)
    if match is None:
        return False
    if match.group(1) is None:
        return True
    listed = _RULE_LIST_RE.match(line, match.start(1))
    if listed is None:
        return False
    return rule.upper() in {r.strip().upper() for r in listed.group(1).split(",")}


def filter_suppressed(
    findings: Iterable[Finding], lines_by_file: Mapping[str, Sequence[str]]
) -> list[Finding]:
    """Drop findings whose source line suppresses them and exact
    duplicates; sort the rest by ``(location, rule)``."""
    out: list[Finding] = []
    seen: set[tuple[str, str, str]] = set()
    for f in findings:
        filename, _, lineno = f.location.rpartition(":")
        lines = lines_by_file.get(filename)
        if (
            lines is not None
            and lineno.isdigit()
            and 1 <= int(lineno) <= len(lines)
            and line_suppresses(lines[int(lineno) - 1], f.rule)
        ):
            continue
        key = (f.rule, f.message, f.location)
        if key in seen:
            continue
        seen.add(key)
        out.append(f)
    out.sort(key=lambda f: (f.location, f.rule))
    return out


# -- task-boundary discovery -------------------------------------------------------

_BOUNDARY_RE = re.compile(r"#\s*task-boundary\b")
_FACTORY_KEYWORDS = ("mapper_factory", "reducer_factory", "combiner_factory")
_TASK_METHODS = ("setup", "map", "map_record", "reduce", "cleanup", "__call__")


@dataclass
class TaskFn:
    """One function or lambda that crosses a task boundary."""

    node: FunctionNode | ast.Lambda
    qualname: str
    #: Names visible where the task is defined -> their value expressions.
    bindings: dict[str, ast.AST]
    #: Discovery route: ``method``, ``fn``, ``factory``, ``hook`` or
    #: ``boundary``.
    kind: str
    self_name: str | None = None


@dataclass
class TaskBoundaries:
    """Everything :func:`discover_tasks` found in one module."""

    tasks: list[TaskFn] = field(default_factory=list)
    #: ``(class, __init__, bindings)`` of each task class: the instance
    #: ships with whatever ``__init__`` stores on it.
    inits: list[tuple[ast.ClassDef, FunctionNode, dict[str, ast.AST]]] = field(
        default_factory=list
    )
    #: ``(append call, constructor call, bindings)`` for each callable hook
    #: object appended to ``before_job``: its constructor arguments cross
    #: the boundary with it.
    hook_objects: list[tuple[ast.Call, ast.Call, dict[str, ast.AST]]] = field(
        default_factory=list
    )


def discover_tasks(module: ModuleSource) -> TaskBoundaries:
    """Find the task-boundary code of one module, scope by scope.

    Routes: ``method`` (task methods of mapper/reducer classes), ``fn``
    (functions and lambdas passed to ``FnMapper``/``FnReducer``),
    ``factory`` (``JobConf`` factory keywords), ``hook``
    (``<runtime>.before_job.append(...)``) and ``boundary`` (a
    ``# task-boundary`` comment on the ``def``/``lambda`` line).  A name is
    resolved through the bindings of the scopes that enclose its use, so a
    parameter shadows a module-level function of the same name.
    """
    walker = _Discovery(module)
    walker.scan_region(module.tree.body, {}, "")
    return walker.found


class _Discovery:
    def __init__(self, module: ModuleSource) -> None:
        self.module = module
        self.found = TaskBoundaries()
        self.seen: set[ast.AST] = set()

    def annotated(self, node: ast.AST) -> bool:
        return bool(_BOUNDARY_RE.search(self.module.line(getattr(node, "lineno", 0))))

    def register(
        self,
        node: ast.AST,
        qualname: str,
        bindings: dict[str, ast.AST],
        kind: str,
        *,
        method: bool = False,
    ) -> None:
        if node in self.seen or not isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
        ):
            return
        self.seen.add(node)
        self_name = None
        if method:
            params = function_param_names(node)
            self_name = params[0] if params else None
        self.found.tasks.append(
            TaskFn(node, qualname, dict(bindings), kind, self_name)
        )

    def task_class(self, cls: ast.ClassDef, bindings: dict[str, ast.AST]) -> None:
        for stmt in cls.body:
            if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if stmt.name in _TASK_METHODS:
                self.register(
                    stmt, f"{cls.name}.{stmt.name}", bindings, "method", method=True
                )
            elif stmt.name == "__init__":
                self.found.inits.append((cls, stmt, bindings))

    def scan_region(
        self, stmts: Iterable[ast.stmt], outer: dict[str, ast.AST], qual: str
    ) -> None:
        merged = {**outer, **scope_bindings(stmts)}
        for stmt in stmts:
            self.walk(stmt, merged, qual)

    def scan_function(
        self, fn: FunctionNode, bindings: dict[str, ast.AST], qual: str
    ) -> None:
        shadow = dict(bindings)
        for p in function_param_names(fn):
            shadow.pop(p, None)
        self.scan_region(fn.body, shadow, qual)

    def walk(self, node: ast.AST, bindings: dict[str, ast.AST], qual: str) -> None:
        if isinstance(node, ast.ClassDef):
            if class_is_task(node):
                self.task_class(node, bindings)
            # Class-level statements see the class's own names; method
            # bodies do not.
            class_scope = {**bindings, **scope_bindings(node.body)}
            for stmt in node.body:
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    self.scan_function(stmt, bindings, f"{qual}{node.name}.{stmt.name}.")
                else:
                    self.walk(stmt, class_scope, f"{qual}{node.name}.")
            return
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if self.annotated(node):
                self.register(node, f"{qual}{node.name}", bindings, "boundary")
            self.scan_function(node, bindings, f"{qual}{node.name}.")
            return
        if isinstance(node, ast.Lambda):
            if self.annotated(node):
                self.register(node, f"{qual}<lambda:{node.lineno}>", bindings, "boundary")
            # Lambdas registered through other routes are handled there;
            # still scan the body expression for patterns.
            self.walk(node.body, bindings, qual)
            return
        if isinstance(node, ast.Call):
            self.call(node, bindings, qual)
        for child in ast.iter_child_nodes(node):
            self.walk(child, bindings, qual)

    def call(self, node: ast.Call, bindings: dict[str, ast.AST], qual: str) -> None:
        leaf = (dotted(node.func) or "").split(".")[-1]
        if leaf in ("FnMapper", "FnReducer") and node.args:
            arg: ast.AST = node.args[0]
            if isinstance(arg, ast.Name):
                arg = bindings.get(arg.id, arg)
                label = getattr(arg, "name", None) or dotted(node.args[0]) or "task"
            else:
                label = f"<lambda:{getattr(arg, 'lineno', node.lineno)}>"
            self.register(arg, f"{qual}{label}", bindings, "fn")
        elif leaf == "JobConf":
            for kw in node.keywords:
                if kw.arg not in _FACTORY_KEYWORDS:
                    continue
                value: ast.AST = kw.value
                if isinstance(value, ast.Name):
                    value = bindings.get(value.id, value)
                label = (
                    getattr(value, "name", None)
                    or f"<lambda:{getattr(value, 'lineno', node.lineno)}>"
                )
                self.register(value, f"{qual}{label} ({kw.arg})", bindings, "factory")
        elif (
            leaf == "append"
            and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Attribute)
            and node.func.value.attr == "before_job"
        ):
            self.hook(node, bindings)

    def hook(self, call: ast.Call, bindings: dict[str, ast.AST]) -> None:
        """``x.before_job.append(arg)`` — the hook crosses the boundary."""
        if not call.args:
            return
        arg: ast.AST = call.args[0]
        if isinstance(arg, ast.Name):
            arg = bindings.get(arg.id, arg)
        if isinstance(arg, (ast.FunctionDef, ast.AsyncFunctionDef)):
            self.register(arg, f"{arg.name} (before_job hook)", bindings, "hook")
        elif isinstance(arg, ast.Lambda):
            self.register(
                arg, f"<lambda:{arg.lineno}> (before_job hook)", bindings, "hook"
            )
        elif isinstance(arg, ast.Call):
            self.found.hook_objects.append((call, arg, bindings))
            # Same-module class: its __call__ runs as the hook.
            cls = bindings.get((dotted(arg.func) or "hook").split(".")[0])
            if isinstance(cls, ast.ClassDef):
                for stmt in cls.body:
                    if (
                        isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and stmt.name == "__call__"
                    ):
                        self.register(
                            stmt,
                            f"{cls.name}.__call__ (before_job hook)",
                            bindings,
                            "hook",
                            method=True,
                        )
