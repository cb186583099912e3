"""Mapper/reducer purity checker.

The simulated runtime (like Hadoop) re-executes tasks: failed attempts are
retried, speculative copies race the originals, and Section 6.1's
"separate HDFS files, never combined on the master" rule exists precisely
because concurrent workers must not share mutable state.  A map/reduce
callable is therefore only safe if it is *pure up to its declared I/O*: no
mutation of closure or global state, no mutation of its inputs, no
nondeterministic APIs (a retried task must write byte-identical output).

This module inspects task callables ahead of execution, via
``inspect.getsource`` + ``ast`` for live objects and plain ``ast`` for source
files:

``PU001``  source unavailable (builtin / C-implemented callable) — INFO;
``PU002``  nondeterministic API call (``random``, ``time.time``,
           ``os.urandom``, unseeded ``default_rng`` ...);
``PU003``  mutation of closure or global state shared across tasks;
``PU004``  mutation of a task input argument;
``PU005``  instance attribute assigned inside ``map``/``reduce`` — WARNING;
``PU006``  wall-clock reads (``datetime.now``, ``time.localtime`` ...) or a
           seedable generator (``Random()``, ``RandomState()``) constructed
           without an injected seed;
``PU007``  iteration over a set whose order can leak into emitted keys —
           WARNING (hash randomization makes replay order differ between
           attempts; wrap in ``sorted(...)``).

Suppressions: append ``# lint: ignore[PU002]`` (or a bare
``# lint: ignore``) to the offending line.
"""

from __future__ import annotations

import ast
import inspect
import linecache
import textwrap
from typing import Any, Callable, Iterable

from ..mapreduce.job import FnMapper, FnReducer, JobConf, Mapper, Reducer
from .astutil import (
    API_PARAMS,
    discover_tasks,
    dotted,
    filter_suppressed,
    function_param_names,
    load_module,
    local_names,
    root_name,
)
from .findings import Finding

#: Method names whose call mutates the receiver in place.
_MUTATORS = frozenset(
    {
        "append", "extend", "insert", "remove", "pop", "clear",
        "add", "discard", "update", "setdefault", "popitem",
        "sort", "reverse", "fill", "itemset", "resize", "put",
    }
)

#: Exact dotted calls that are nondeterministic.
_NONDET_EXACT = frozenset(
    {
        "os.urandom", "time.time", "time.time_ns", "time.perf_counter",
        "time.perf_counter_ns", "time.monotonic", "time.monotonic_ns",
        "uuid.uuid1", "uuid.uuid4",
    }
)

#: Bare names (``from x import y`` style) that are nondeterministic.
_NONDET_BARE = frozenset(
    {
        "urandom", "uuid1", "uuid4", "getrandbits", "randbytes",
        "token_bytes", "token_hex", "perf_counter", "monotonic",
    }
)

#: Task methods analyzed.  Only the record-level ones must leave ``self``
#: unchanged: setup/cleanup legitimately build per-task state.
_TASK_METHODS = ("setup", "map", "map_record", "reduce", "cleanup")
_STATEFUL_METHODS = ("map", "map_record", "reduce")


def _is_nondet_call(call: ast.Call) -> str | None:
    """A human-readable description when ``call`` is nondeterministic."""
    name = dotted(call.func)
    if name is None:
        return None
    parts = name.split(".")
    leaf = parts[-1]
    if leaf == "default_rng" or leaf == "Generator":
        if not call.args and not call.keywords:
            return f"{name}() without a seed"
        return None
    if leaf == "seed":
        return None  # explicit seeding is the fix, not the defect
    if parts[0] in ("random", "secrets"):
        return f"{name}()"
    if "random" in parts[:-1]:  # np.random.*, numpy.random.*
        return f"{name}()"
    if name in _NONDET_EXACT:
        return f"{name}()"
    if len(parts) == 1 and leaf in _NONDET_BARE:
        return f"{leaf}()"
    if len(parts) == 1 and leaf == "time":
        return "time()"
    return None


def _is_wallclock_or_unseeded(call: ast.Call) -> str | None:
    """PU006 patterns :func:`_is_nondet_call` does not already cover:
    wall-clock formatting/reads and seedable generator classes constructed
    without arguments (``random.*`` and ``np.random.*`` dotted calls are
    PU002 territory; this catches the bare-import spellings)."""
    name = dotted(call.func)
    if name is None:
        return None
    parts = name.split(".")
    leaf = parts[-1]
    if (
        leaf in ("Random", "RandomState", "SystemRandom")
        and not call.args
        and not call.keywords
    ):
        return f"{name}() without a seed"
    if len(parts) >= 2:
        if leaf in ("now", "utcnow", "today") and parts[-2] in (
            "datetime",
            "date",
        ):
            return f"{name}()"
        if parts[0] == "time" and leaf in (
            "localtime", "gmtime", "ctime", "asctime", "strftime",
        ):
            return f"{name}()"
    return None


def _set_iteration_desc(node: ast.AST) -> str | None:
    """Describe ``node`` when it is a set-valued iterable (PU007)."""
    if isinstance(node, ast.Set):
        return "a set literal"
    if isinstance(node, ast.SetComp):
        return "a set comprehension"
    if isinstance(node, ast.Call):
        name = dotted(node.func)
        leaf = name.split(".")[-1] if name else ""
        if leaf in ("set", "frozenset"):
            return f"{leaf}(...)"
    return None


class _TaskBodyVisitor(ast.NodeVisitor):
    """Walk one task function body collecting purity findings."""

    def __init__(
        self,
        *,
        qualname: str,
        filename: str,
        line_offset: int,
        input_params: set[str],
        local_names: set[str],
        self_name: str | None,
        check_self_state: bool,
    ) -> None:
        self.qualname = qualname
        self.filename = filename
        self.line_offset = line_offset
        self.input_params = input_params
        self.local_names = local_names
        self.self_name = self_name
        self.check_self_state = check_self_state
        self.declared_shared: set[str] = set()  # global / nonlocal names
        self.findings: list[Finding] = []

    # -- helpers -------------------------------------------------------------

    def _loc(self, node: ast.AST) -> str:
        line = getattr(node, "lineno", 1) + self.line_offset
        return f"{self.filename}:{line}"

    def _emit(self, rule: str, message: str, node: ast.AST, hint: str = "") -> None:
        self.findings.append(
            Finding.of(
                rule,
                f"{self.qualname}: {message}",
                location=self._loc(node),
                hint=hint,
            )
        )

    def _classify_root(self, target: ast.AST, node: ast.AST, what: str) -> None:
        """Report mutation of ``target`` according to who owns its root."""
        root = root_name(target)
        if root is None:
            return
        if root == self.self_name or root in ("self", "cls"):
            if self.check_self_state:
                self._emit(
                    "PU005",
                    f"{what} mutates instance state ({root}.…)",
                    node,
                    hint="task instances are rebuilt per attempt; carried "
                    "state diverges under retries and speculation",
                )
            return
        if root in API_PARAMS:
            return
        if root in self.input_params:
            self._emit(
                "PU004",
                f"{what} mutates input argument {root!r}",
                node,
                hint="inputs may be shared with other attempts of the same "
                "task; copy before modifying",
            )
            return
        if root in self.declared_shared or root not in self.local_names:
            self._emit(
                "PU003",
                f"{what} mutates shared state {root!r} captured from an "
                "enclosing scope",
                node,
                hint="emit through the context or write to a task-private "
                "DFS path instead (Section 6.1's separate-files rule)",
            )

    # -- visitors ------------------------------------------------------------

    def visit_Global(self, node: ast.Global) -> None:
        self.declared_shared.update(node.names)

    def visit_Nonlocal(self, node: ast.Nonlocal) -> None:
        self.declared_shared.update(node.names)

    def visit_Call(self, node: ast.Call) -> None:
        desc = _is_nondet_call(node)
        if desc is not None:
            self._emit(
                "PU002",
                f"calls {desc}",
                node,
                hint="retried/speculative attempts must produce identical "
                "output; derive randomness from a seed in the split or "
                "job params",
            )
        else:
            clock = _is_wallclock_or_unseeded(node)
            if clock is not None:
                self._emit(
                    "PU006",
                    f"calls {clock}",
                    node,
                    hint="inject the seed/timestamp through the split or "
                    "job params so a retried attempt replays identically",
                )
        if isinstance(node.func, ast.Attribute) and node.func.attr in _MUTATORS:
            self._classify_root(
                node.func.value, node, f"call to .{node.func.attr}()"
            )
        self.generic_visit(node)

    def _visit_targets(self, targets: Iterable[ast.AST], node: ast.AST) -> None:
        for target in targets:
            if isinstance(target, (ast.Tuple, ast.List)):
                self._visit_targets(target.elts, node)
            elif isinstance(target, (ast.Attribute, ast.Subscript)):
                self._classify_root(target, node, "assignment")
            elif isinstance(target, ast.Name):
                if target.id in self.declared_shared:
                    self._emit(
                        "PU003",
                        f"assignment rebinds shared name {target.id!r} "
                        "(global/nonlocal)",
                        node,
                        hint="emit through the context instead of writing "
                        "to enclosing scopes",
                    )

    def _check_set_iter(self, iterable: ast.AST, node: ast.AST) -> None:
        desc = _set_iteration_desc(iterable)
        if desc is not None:
            self._emit(
                "PU007",
                f"iterates over {desc} (hash-randomized order)",
                node,
                hint="wrap the iterable in sorted(...) so emitted key order "
                "is identical across attempts",
            )

    def visit_For(self, node: ast.For) -> None:
        self._check_set_iter(node.iter, node)
        self.generic_visit(node)

    def visit_comprehension(self, node: ast.comprehension) -> None:
        self._check_set_iter(node.iter, node.iter)
        self.generic_visit(node)

    def visit_Assign(self, node: ast.Assign) -> None:
        self._visit_targets(node.targets, node)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._visit_targets([node.target], node)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self._visit_targets([node.target], node)
        self.generic_visit(node)


def _task_findings(
    node: ast.FunctionDef | ast.AsyncFunctionDef | ast.Lambda,
    *,
    qualname: str,
    filename: str,
    line_offset: int = 0,
    check_self_state: bool = False,
) -> list[Finding]:
    """Analyze one function or lambda AST node."""
    params = function_param_names(node)
    visitor = _TaskBodyVisitor(
        qualname=qualname,
        filename=filename,
        line_offset=line_offset,
        input_params={p for p in params if p not in API_PARAMS},
        local_names=local_names(node),
        self_name=params[0] if params and params[0] in ("self", "cls") else None,
        check_self_state=check_self_state,
    )
    if isinstance(node, ast.Lambda):
        visitor.visit(node.body)
    else:
        for stmt in node.body:
            visitor.visit(stmt)
    return visitor.findings


# One analysis per code object: factories recreate task instances per call,
# but the underlying functions (and their findings) are identical.
_CODE_CACHE: dict[Any, tuple[Finding, ...]] = {}


def _analyze_function_obj(
    fn: Callable[..., Any], *, check_self_state: bool
) -> list[Finding]:
    code = getattr(fn, "__code__", None)
    key = (code, check_self_state)
    if code is not None and key in _CODE_CACHE:
        return list(_CODE_CACHE[key])
    qualname = getattr(fn, "__qualname__", repr(fn))
    try:
        source_lines, base_line = inspect.getsourcelines(fn)
        filename = inspect.getsourcefile(fn) or "<unknown>"
    except (OSError, TypeError):
        return [
            Finding.of(
                "PU001",
                f"{qualname}: source unavailable; cannot verify purity",
                location=qualname,
                hint="built-in or C-implemented callables are assumed pure",
            )
        ]
    try:
        tree = ast.parse(textwrap.dedent("".join(source_lines)))
    except SyntaxError:
        return [
            Finding.of(
                "PU001",
                f"{qualname}: source does not parse standalone",
                location=filename,
            )
        ]
    func_node = next(
        (
            node
            for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        ),
        None,
    )
    if func_node is not None:
        findings = _task_findings(
            func_node,
            qualname=qualname,
            filename=filename,
            line_offset=base_line - func_node.lineno,
            check_self_state=check_self_state,
        )
    else:
        # A lambda: getsource returns the whole enclosing statement, so pick
        # the lambda node matching the code object's line and arity.
        lambdas = [n for n in ast.walk(tree) if isinstance(n, ast.Lambda)]
        if code is not None and lambdas:
            on_line = [
                n for n in lambdas
                if n.lineno == code.co_firstlineno - base_line + 1
            ]
            lambdas = on_line or lambdas
            by_arity = [
                n for n in lambdas
                if len(n.args.posonlyargs) + len(n.args.args) == code.co_argcount
            ]
            lambdas = by_arity or lambdas
        if not lambdas:
            return [
                Finding.of(
                    "PU001",
                    f"{qualname}: cannot locate the function in its source "
                    "statement; cannot verify purity",
                    location=filename,
                )
            ]
        findings = _task_findings(
            lambdas[0],
            qualname=qualname,
            filename=filename,
            line_offset=base_line - 1,
        )
    # inspect read the file through linecache, so this is a cache hit.
    findings = filter_suppressed(findings, {filename: linecache.getlines(filename)})
    if code is not None:
        _CODE_CACHE[key] = tuple(findings)
    return findings


def _overridden_methods(obj: Mapper | Reducer) -> list[tuple[str, Callable[..., Any]]]:
    """(name, function) for task methods the class actually overrides."""
    base = Mapper if isinstance(obj, Mapper) else Reducer
    out: list[tuple[str, Callable[..., Any]]] = []
    for name in _TASK_METHODS:
        fn = getattr(type(obj), name, None)
        if fn is None or getattr(base, name, None) is fn:
            continue
        out.append((name, fn))
    return out


def analyze_callable(obj: Any) -> list[Finding]:
    """Purity findings for one task callable.

    Accepts a :class:`Mapper`/:class:`Reducer` instance (every overridden
    task method is analyzed), an :class:`FnMapper`/:class:`FnReducer`
    (the wrapped function is analyzed), or a plain function.
    """
    if isinstance(obj, (FnMapper, FnReducer)):
        return _analyze_function_obj(obj._fn, check_self_state=False)
    if isinstance(obj, (Mapper, Reducer)):
        findings: list[Finding] = []
        for name, fn in _overridden_methods(obj):
            findings.extend(
                _analyze_function_obj(
                    fn, check_self_state=name in _STATEFUL_METHODS
                )
            )
        return findings
    if callable(obj):
        return _analyze_function_obj(obj, check_self_state=False)
    raise TypeError(f"not a task callable: {obj!r}")


def analyze_job(conf: JobConf) -> list[Finding]:
    """Purity findings for one job's mapper (and reducer, if any)."""
    findings: list[Finding] = []
    for factory in (conf.mapper_factory, conf.reducer_factory):
        if factory is None:
            continue
        try:
            task = factory()
        except Exception as exc:  # pragma: no cover - defensive
            findings.append(
                Finding.of(
                    "PU001",
                    f"job {conf.name!r}: task factory raised {exc!r}; "
                    "cannot analyze",
                    location=conf.name,
                )
            )
            continue
        findings.extend(analyze_callable(task))
    # The same class serves many jobs; drop exact duplicates.
    return filter_suppressed(findings, {})


# -- source-file analysis (no imports executed) ---------------------------------


def analyze_source(text: str, filename: str = "<string>") -> list[Finding]:
    """Purity findings for every task callable defined in a source file.

    Analyzes, through the shared task-boundary discovery, (a) the task
    methods of classes that look like mappers/reducers (subclass naming or
    a ``map``/``map_record``/``reduce`` method) and (b) functions and
    lambdas passed to ``FnMapper``/``FnReducer``, resolved in the scope of
    the call.  Driver-side code is deliberately not checked: seeding
    generators or timing on the master is fine — only task bodies must be
    pure.
    """
    module = load_module(text, filename, "PU001")
    if isinstance(module, Finding):
        return [module]
    findings: list[Finding] = []
    for task in discover_tasks(module).tasks:
        node = task.node
        name = getattr(node, "name", f"<lambda:{node.lineno}>")
        if task.kind == "method" and name in _TASK_METHODS:
            findings += _task_findings(
                node,
                qualname=task.qualname,
                filename=filename,
                check_self_state=name in _STATEFUL_METHODS,
            )
        elif task.kind == "fn":
            findings += _task_findings(node, qualname=name, filename=filename)
    return filter_suppressed(findings, {filename: module.lines})
