"""Project index: per-module summaries, import tables and a disk cache.

This is the substrate of repro-lint's whole-program pass.  Every linted
file is distilled into a :class:`ModuleSummary` — its import table, its
functions (with call sites, sink calls and executor submissions), its
classes (methods, attribute types, bases) and its module-level globals.
The summaries are pure data (JSON round-trippable), which buys two
things:

* the **call graph** (:mod:`tools.repro_lint.callgraph`) is built from
  summaries alone, never from live ASTs, so cross-file rules see one
  uniform model whether a module was parsed this run or restored from
  cache;
* the **cache** (:class:`IndexCache`) can persist summaries *and* the
  per-file diagnostics keyed on a content hash — a warm run re-parses
  only files whose bytes changed, while the cross-file rules always run
  against the fully reassembled index, so editing a transitively-called
  helper re-analyses every dependent module for free.

The cache is invalidated wholesale when the linter itself changes: the
fingerprint hashes every source file of ``tools/repro_lint``.
"""

from __future__ import annotations

import ast
import contextlib
import hashlib
import json
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from tools.repro_lint import config

__all__ = [
    "CallSite",
    "ClassInfo",
    "FunctionInfo",
    "IndexCache",
    "ModuleSummary",
    "ProjectIndex",
    "SubmitSite",
    "linter_fingerprint",
    "module_name_for_path",
    "summarize_module",
]

#: Bump when the summary shape changes incompatibly.
INDEX_VERSION = 2

#: Qualname of the pseudo-function that holds a module's top-level code
#: (module and class-body statements outside any ``def``).
MODULE_SCOPE = "<module>"


# ----------------------------------------------------------------------
# Summary data model
# ----------------------------------------------------------------------
@dataclass
class CallSite:
    """One call expression inside a function body."""

    callee: str  #: dotted name as written ("time.sleep", "self._compute", "helper")
    lineno: int
    col: int
    awaited: bool = False
    bare_stmt: bool = False  #: expression statement whose value is discarded
    offloaded: bool = False  #: callable passed through asyncio.to_thread / run_in_executor

    def to_json(self) -> list[Any]:
        return [
            self.callee,
            self.lineno,
            self.col,
            self.awaited,
            self.bare_stmt,
            self.offloaded,
        ]

    @classmethod
    def from_json(cls, data: list[Any]) -> CallSite:
        return cls(*data)


@dataclass
class SubmitSite:
    """An ``<pool>.submit(target, ...)`` call."""

    target: str  #: dotted name, "<lambda>" or "<computed>"
    #: "name" (resolve through the index) | "local" (a bare name bound in
    #: the submitting function or an enclosing one: nested def, parameter,
    #: local variable) | "lambda" | "computed"
    kind: str
    lineno: int
    col: int

    def to_json(self) -> list[Any]:
        return [self.target, self.kind, self.lineno, self.col]

    @classmethod
    def from_json(cls, data: list[Any]) -> SubmitSite:
        return cls(*data)


@dataclass
class FunctionInfo:
    """One function or method, flattened for the call graph."""

    qualname: str
    lineno: int
    col: int
    is_async: bool = False
    kind: str = "function"  #: "function" | "method" | "nested" | "module"
    owner: str = ""  #: enclosing class qualname for methods
    params: dict[str, str] = field(default_factory=dict)  #: name -> annotation ref
    local_types: dict[str, str] = field(default_factory=dict)  #: name -> class ref
    calls: list[CallSite] = field(default_factory=list)
    #: sink kind ("blocking" | "clock" | "entropy") -> [(label, line, col)];
    #: entropy also covers imports of an entropy source ("import random")
    sinks: dict[str, list[tuple[str, int, int]]] = field(default_factory=dict)
    submits: list[SubmitSite] = field(default_factory=list)
    reads: list[str] = field(default_factory=list)  #: non-local names read

    def to_json(self) -> dict[str, Any]:
        return {
            "qualname": self.qualname,
            "lineno": self.lineno,
            "col": self.col,
            "is_async": self.is_async,
            "kind": self.kind,
            "owner": self.owner,
            "params": self.params,
            "local_types": self.local_types,
            "calls": [call.to_json() for call in self.calls],
            "sinks": {k: [list(site) for site in v] for k, v in self.sinks.items()},
            "submits": [submit.to_json() for submit in self.submits],
            "reads": self.reads,
        }

    @classmethod
    def from_json(cls, data: dict[str, Any]) -> FunctionInfo:
        return cls(
            qualname=data["qualname"],
            lineno=data["lineno"],
            col=data["col"],
            is_async=data["is_async"],
            kind=data["kind"],
            owner=data["owner"],
            params=data["params"],
            local_types=data["local_types"],
            calls=[CallSite.from_json(c) for c in data["calls"]],
            sinks={
                k: [(s[0], s[1], s[2]) for s in v] for k, v in data["sinks"].items()
            },
            submits=[SubmitSite.from_json(s) for s in data["submits"]],
            reads=data["reads"],
        )


@dataclass
class ClassInfo:
    """One class: methods, inferred attribute types, base references."""

    name: str
    lineno: int
    methods: list[str] = field(default_factory=list)
    attr_types: dict[str, str] = field(default_factory=dict)  #: attr -> class ref
    bases: list[str] = field(default_factory=list)  #: dotted refs as written

    def to_json(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "lineno": self.lineno,
            "methods": self.methods,
            "attr_types": self.attr_types,
            "bases": self.bases,
        }

    @classmethod
    def from_json(cls, data: dict[str, Any]) -> ClassInfo:
        return cls(**data)


@dataclass
class ModuleSummary:
    """Everything the whole-program pass needs to know about one file."""

    module: str
    path: str  #: display path (current run; not part of the cached identity)
    resolved: str  #: resolved POSIX path (cache key, scope matching)
    sha256: str
    imports: dict[str, str] = field(default_factory=dict)  #: local name -> dotted target
    functions: dict[str, FunctionInfo] = field(default_factory=dict)
    classes: dict[str, ClassInfo] = field(default_factory=dict)
    globals: dict[str, str] = field(default_factory=dict)  #: name -> kind
    #: line -> suppressed codes (None = all), mirroring core.collect_suppressions
    suppressions: dict[int, frozenset[str] | None] = field(default_factory=dict)
    #: per-file rule findings, post-suppression: (code, line, col, message)
    diagnostics: list[tuple[str, int, int, str]] = field(default_factory=list)
    #: error text when the file failed to parse (None = parsed fine)
    parse_error: str | None = None

    def in_scope(self, patterns: tuple[str, ...]) -> bool:
        return any(pattern in self.resolved for pattern in patterns)

    def suppressed(self, line: int, code: str) -> bool:
        if line not in self.suppressions:
            return False
        codes = self.suppressions[line]
        return codes is None or code in codes

    def to_json(self) -> dict[str, Any]:
        return {
            "module": self.module,
            "path": self.path,
            "resolved": self.resolved,
            "sha256": self.sha256,
            "imports": self.imports,
            "functions": {k: v.to_json() for k, v in self.functions.items()},
            "classes": {k: v.to_json() for k, v in self.classes.items()},
            "globals": self.globals,
            "suppressions": {
                str(line): (None if codes is None else sorted(codes))
                for line, codes in self.suppressions.items()
            },
            "diagnostics": [list(d) for d in self.diagnostics],
            "parse_error": self.parse_error,
        }

    @classmethod
    def from_json(cls, data: dict[str, Any]) -> ModuleSummary:
        return cls(
            module=data["module"],
            path=data["path"],
            resolved=data["resolved"],
            sha256=data["sha256"],
            imports=data["imports"],
            functions={
                k: FunctionInfo.from_json(v) for k, v in data["functions"].items()
            },
            classes={k: ClassInfo.from_json(v) for k, v in data["classes"].items()},
            globals=data["globals"],
            suppressions={
                int(line): (None if codes is None else frozenset(codes))
                for line, codes in data["suppressions"].items()
            },
            diagnostics=[(d[0], d[1], d[2], d[3]) for d in data["diagnostics"]],
            parse_error=data["parse_error"],
        )


# ----------------------------------------------------------------------
# Module naming
# ----------------------------------------------------------------------
def module_name_for_path(resolved: str) -> str:
    """Dotted module name for a resolved POSIX path.

    Files under a ``repro`` directory get their canonical library name
    (``.../repro/service/service.py`` → ``repro.service.service``), so
    absolute imports in the tree resolve against the index whether the
    file lives in ``src/`` or in a fixture tree.  Files outside any
    ``repro`` directory (benchmarks, tests, tools) get a path-derived
    name under ``_ext`` — unique, but never the target of an import.
    """
    parts = resolved.split("/")
    stem_parts = list(parts)
    if stem_parts[-1].endswith(".py"):
        stem_parts[-1] = stem_parts[-1][: -len(".py")]
    if "repro" in parts:
        anchor = len(parts) - 1 - parts[::-1].index("repro")
        rel = stem_parts[anchor:]
        if rel[-1] == "__init__":
            rel = rel[:-1]
        return ".".join(rel)
    digest = hashlib.sha256(resolved.encode("utf-8")).hexdigest()[:8]
    tail = [part for part in stem_parts[-3:] if part]
    return "_ext." + ".".join(tail) + "_" + digest


# ----------------------------------------------------------------------
# Extraction helpers
# ----------------------------------------------------------------------
def _dotted(node: ast.expr) -> str | None:
    """Render ``a.b.c`` chains; None for anything not a pure name chain."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = _dotted(node.value)
        if base is None:
            return None
        return f"{base}.{node.attr}"
    return None


def _annotation_ref(node: ast.expr | None) -> str | None:
    """A class-reference string from an annotation expression.

    Handles plain names, dotted names, string annotations, ``X | None``
    unions (the non-None side) and ``Optional[X]``.  Anything more
    structured is skipped — the call graph stays conservative.
    """
    if node is None:
        return None
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        text = node.value.strip()
        with contextlib.suppress(SyntaxError):
            return _annotation_ref(ast.parse(text, mode="eval").body)
        return None
    if isinstance(node, (ast.Name, ast.Attribute)):
        return _dotted(node)
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
        for side in (node.left, node.right):
            if isinstance(side, ast.Constant) and side.value is None:
                continue
            ref = _annotation_ref(side)
            if ref is not None and ref != "None":
                return ref
        return None
    if isinstance(node, ast.Subscript):
        base = _dotted(node.value)
        if base in ("Optional", "typing.Optional"):
            return _annotation_ref(node.slice)
    return None


def _resolve_root(name: str, imports: dict[str, str]) -> str:
    """Rewrite a dotted name's root through the import table."""
    root, dot, rest = name.partition(".")
    target = imports.get(root)
    if target is None:
        return name
    return target + (("." + rest) if dot else "")


def _classify_sink(
    callee: str, node: ast.Call | None, imports: dict[str, str]
) -> tuple[str, str] | None:
    """``(sink kind, label)`` when the resolved call is a sink.

    ``node`` is ``None`` when classifying an imported name rather than a
    call (see :func:`_classify_import`).
    """
    resolved = _resolve_root(callee, imports)
    last = resolved.rsplit(".", 1)[-1]
    root = resolved.partition(".")[0]
    # Blocking calls (RPL701 sinks).
    if resolved in config.BLOCKING_CALLS:
        return "blocking", resolved
    if resolved == "open" and "open" not in imports:
        return "blocking", "open"
    if "." in callee and callee.rsplit(".", 1)[-1] in config.BLOCKING_ATTRS:
        return "blocking", f".{callee.rsplit('.', 1)[-1]}"
    # Wall-clock reads (RPL003 sinks).
    if root == "time" and last in config.WALL_CLOCK_FUNCTIONS:
        return "clock", resolved
    if root in ("datetime", "date") and last in config.DATETIME_NOW_FUNCTIONS:
        return "clock", resolved
    # Entropy draws (RPL001 sinks).
    if resolved in config.ENTROPY_CALLS:
        return "entropy", resolved
    if root in config.ENTROPY_MODULE_ROOTS and "." in resolved:
        return "entropy", resolved
    if resolved.startswith("numpy.random."):
        attr = resolved.split(".", 2)[2].partition(".")[0]
        if attr not in config.NP_RANDOM_ALLOWED:
            return "entropy", resolved
        if attr == "default_rng" and node is not None and not node.args and not node.keywords:
            return "entropy", "numpy.random.default_rng()  # unseeded"
    return None


def _classify_import(target: str) -> str | None:
    """Entropy-sink label when importing ``target`` brings a draw into scope.

    ``import random`` / ``from numpy.random import rand`` are findings
    where they are written, even before (or without) a call.
    """
    sink = _classify_sink(target, None, {})
    if target.partition(".")[0] in config.ENTROPY_MODULE_ROOTS or (
        sink is not None and sink[0] == "entropy"
    ):
        return f"import {target}"
    return None


def _classify_global(value: ast.expr, imports: dict[str, str]) -> str:
    """Kind of a module-level binding (for RPL101/902)."""
    if isinstance(value, ast.Lambda):
        return "lambda"
    if isinstance(value, ast.Call):
        callee = _dotted(value.func)
        if callee is not None:
            resolved = _resolve_root(callee, imports)
            kind = config.GLOBAL_STATE_CONSTRUCTORS.get(resolved)
            if kind is None:
                # Bare constructor names imported from the defining module
                # (``from threading import Lock``) resolve above; also catch
                # the unqualified class names for robustness.
                tail = resolved.rsplit(".", 1)[-1]
                for ctor, ctor_kind in config.GLOBAL_STATE_CONSTRUCTORS.items():
                    if "." in ctor and ctor.rsplit(".", 1)[-1] == tail:
                        return ctor_kind
                return "other"
            return kind
    return "other"


class _FunctionExtractor:
    """Collect calls, sinks, submits and reads from one scope's code.

    A scope is a function body or a module's top-level code.  A nested
    ``def`` body is its own scope, but its decorators and defaults, and
    the statements of a nested class body, run in the enclosing one.
    """

    def __init__(
        self,
        imports: dict[str, str],
        enclosing: frozenset[str] = frozenset(),
        module_scope: bool = False,
    ) -> None:
        self.imports = imports
        self.enclosing = enclosing  #: local names of enclosing functions
        self.module_scope = module_scope
        self.calls: list[CallSite] = []
        self.sinks: dict[str, list[tuple[str, int, int]]] = {}
        self.submits: list[SubmitSite] = []
        self.bound: set[str] = set()
        self.imported: set[str] = set()
        self.read: list[str] = []

    def local_names(self) -> frozenset[str]:
        """Names bound in this function or an enclosing one, imports aside."""
        if self.module_scope:
            return frozenset()
        return frozenset(self.bound - self.imported) | self.enclosing

    def visit_body(self, stmts: list[ast.stmt]) -> None:
        for stmt in stmts:
            self._visit(stmt, awaited=False, bare=False)

    def _visit(self, node: ast.AST, awaited: bool, bare: bool) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            header: list[ast.AST] = [*node.decorator_list]
            if isinstance(node, ast.ClassDef):
                header += [*node.bases, *node.keywords]
                header += [
                    stmt
                    for stmt in node.body
                    if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
                ]
            else:
                header += [*node.args.defaults, *filter(None, node.args.kw_defaults)]
            outer = set(self.bound)  # class attributes do not bind here
            for child in header:
                self._visit(child, awaited=False, bare=False)
            self.bound = outer | {node.name}
            return
        if isinstance(node, ast.Expr):
            self._visit(node.value, awaited=False, bare=True)
            return
        if isinstance(node, ast.Await):
            self._visit(node.value, awaited=True, bare=False)
            return
        if isinstance(node, ast.Call):
            self._handle_call(node, awaited=awaited, bare=bare)
            return
        if isinstance(node, ast.Name):
            if isinstance(node.ctx, ast.Load):
                if node.id not in self.bound:
                    self.read.append(node.id)
            else:
                self.bound.add(node.id)
            return
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                self.bound.add(local)
                self.imported.add(local)
                if isinstance(node, ast.ImportFrom) and node.level:
                    continue  # a relative import is never an entropy source
                target = (
                    f"{node.module}.{alias.name}"
                    if isinstance(node, ast.ImportFrom)
                    else alias.name
                )
                label = _classify_import(target)
                if label is not None:
                    self.sinks.setdefault("entropy", []).append(
                        (label, node.lineno, node.col_offset)
                    )
            return
        for child in ast.iter_child_nodes(node):
            self._visit(child, awaited=False, bare=False)

    def _handle_call(self, node: ast.Call, awaited: bool, bare: bool) -> None:
        callee = _dotted(node.func)
        offload_args: list[ast.expr] = []
        if callee is not None:
            resolved = _resolve_root(callee, self.imports)
            if resolved in config.OFFLOAD_CALLS and node.args:
                offload_args.append(node.args[0])
            elif (
                callee.rsplit(".", 1)[-1] in config.OFFLOAD_ATTRS
                and len(node.args) >= 2
            ):
                offload_args.append(node.args[1])
            self.calls.append(
                CallSite(
                    callee,
                    node.lineno,
                    node.col_offset,
                    awaited=awaited,
                    bare_stmt=bare,
                )
            )
            sink = _classify_sink(callee, node, self.imports)
            if sink is not None:
                kind, label = sink
                self.sinks.setdefault(kind, []).append(
                    (label, node.lineno, node.col_offset)
                )
        # Any receiver counts: ``pools[0].submit(...)`` submits too.
        if isinstance(node.func, ast.Attribute) and node.func.attr == "submit" and node.args:
            self._handle_submit(node.args[0])
        # Offloaded callables still become (flagged) edges so the
        # determinism rules can traverse them.
        for arg in offload_args:
            target = _dotted(arg)
            if target is not None:
                self.calls.append(
                    CallSite(
                        target, arg.lineno, arg.col_offset, offloaded=True
                    )
                )
        # Recurse into receiver and arguments.
        for child in ast.iter_child_nodes(node):
            self._visit(child, awaited=False, bare=False)

    def _handle_submit(self, target: ast.expr) -> None:
        dotted = _dotted(target)
        if isinstance(target, ast.Lambda):
            dotted, kind = "<lambda>", "lambda"
        elif dotted is None:
            dotted, kind = "<computed>", "computed"
        elif dotted in self.local_names():
            kind = "local"
        else:
            kind = "name"
        self.submits.append(SubmitSite(dotted, kind, target.lineno, target.col_offset))


def _function_params(node: ast.FunctionDef | ast.AsyncFunctionDef) -> dict[str, str]:
    params: dict[str, str] = {}
    args = node.args
    for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
        ref = _annotation_ref(arg.annotation)
        if ref is not None:
            params[arg.arg] = ref
    return params


def _scope_defs(
    nodes: Iterable[ast.AST],
) -> Iterator[ast.FunctionDef | ast.AsyncFunctionDef | ast.ClassDef]:
    """The defs and classes of one scope, also those under ``if``/``try``/..."""
    for node in nodes:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node
        elif not isinstance(node, ast.expr):
            yield from _scope_defs(ast.iter_child_nodes(node))


def _extract_scope(
    summary: ModuleSummary,
    body: list[ast.stmt],
    prefix: str,
    enclosing: frozenset[str] = frozenset(),
) -> None:
    """Summarize every def and class of one scope, nested ones included."""
    for node in _scope_defs(body):
        if isinstance(node, ast.ClassDef):
            _extract_class(summary, node, prefix)
        else:
            kind = "nested" if prefix else "function"
            _extract_function(summary, node, prefix, kind, "", enclosing)


def _extract_function(
    summary: ModuleSummary,
    node: ast.FunctionDef | ast.AsyncFunctionDef,
    prefix: str,
    kind: str,
    owner: str,
    enclosing: frozenset[str],
) -> None:
    qualname = f"{prefix}{node.name}"
    extractor = _FunctionExtractor(summary.imports, enclosing)
    args = node.args
    extractor.bound.update(
        arg.arg
        for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg]
        if arg is not None
    )
    extractor.visit_body(node.body)
    previous = summary.functions.get(qualname)
    if previous is not None:  # redefined (e.g. per if/else branch): either body may run
        extractor.calls[:0] = previous.calls
        extractor.submits[:0] = previous.submits
        extractor.read += previous.reads
        for sink_kind, sites in previous.sinks.items():
            extractor.sinks[sink_kind] = sites + extractor.sinks.get(sink_kind, [])
    summary.functions[qualname] = FunctionInfo(
        qualname=qualname,
        lineno=node.lineno,
        col=node.col_offset,
        is_async=isinstance(node, ast.AsyncFunctionDef),
        kind=kind,
        owner=owner,
        params=_function_params(node),
        local_types=_local_types(node.body, summary.imports),
        calls=extractor.calls,
        sinks=extractor.sinks,
        submits=extractor.submits,
        reads=sorted(set(extractor.read)),
    )
    _extract_scope(summary, node.body, f"{qualname}.", extractor.local_names())


def _local_types(stmts: list[ast.stmt], imports: dict[str, str]) -> dict[str, str]:
    """``name -> class ref`` for ``x = Cls(...)`` / ``x: Cls`` locals."""
    types: dict[str, str] = {}
    for stmt in stmts:
        for node in ast.walk(stmt):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                ref = _annotation_ref(node.annotation)
                if ref is not None:
                    types[node.target.id] = ref
            elif (
                isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and isinstance(node.value, ast.Call)
            ):
                callee = _dotted(node.value.func)
                if callee is not None and callee.rsplit(".", 1)[-1][:1].isupper():
                    types[node.targets[0].id] = callee
    return types


def _extract_class(summary: ModuleSummary, node: ast.ClassDef, prefix: str) -> None:
    info = ClassInfo(name=f"{prefix}{node.name}", lineno=node.lineno)
    for base in node.bases:
        ref = _dotted(base)
        if ref is not None:
            info.bases.append(ref)
    for stmt in node.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            info.methods.append(stmt.name)
            # Attribute types: ``self.x: Cls = ...`` / ``self.x = Cls(...)``.
            for child in ast.walk(stmt):
                if (
                    isinstance(child, ast.AnnAssign)
                    and isinstance(child.target, ast.Attribute)
                    and isinstance(child.target.value, ast.Name)
                    and child.target.value.id == "self"
                ):
                    ref = _annotation_ref(child.annotation)
                    if ref is not None:
                        info.attr_types.setdefault(child.target.attr, ref)
                elif (
                    isinstance(child, ast.Assign)
                    and len(child.targets) == 1
                    and isinstance(child.targets[0], ast.Attribute)
                    and isinstance(child.targets[0].value, ast.Name)
                    and child.targets[0].value.id == "self"
                    and isinstance(child.value, ast.Call)
                ):
                    callee = _dotted(child.value.func)
                    if callee is not None and callee.rsplit(".", 1)[-1][:1].isupper():
                        info.attr_types.setdefault(child.targets[0].attr, callee)
        elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            ref = _annotation_ref(stmt.annotation)
            if ref is not None:
                info.attr_types.setdefault(stmt.target.id, ref)
    summary.classes[info.name] = info
    class_prefix = f"{info.name}."
    for stmt in _scope_defs(node.body):
        if isinstance(stmt, ast.ClassDef):
            _extract_class(summary, stmt, class_prefix)
        else:
            _extract_function(
                summary, stmt, class_prefix, "method", info.name, frozenset()
            )


def _collect_imports(summary: ModuleSummary, tree: ast.Module) -> None:
    """Gather every import in the file into one flat table.

    Function-local and ``TYPE_CHECKING`` imports are included: the call
    graph resolves *names*, and a lazily imported helper is exactly the
    kind of edge a whole-program analysis exists to see.
    """
    package = summary.module.rsplit(".", 1)[0] if "." in summary.module else ""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                target = alias.name if alias.asname else alias.name.split(".")[0]
                summary.imports.setdefault(local, target)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                parts = summary.module.split(".")
                # level 1 = the containing package, each extra level one up.
                anchor = parts[: len(parts) - node.level]
                if not anchor:
                    anchor = [parts[0]] if parts else []
                base = ".".join([*anchor, base]) if base else ".".join(anchor)
            for alias in node.names:
                local = alias.asname or alias.name
                if alias.name == "*":
                    continue
                summary.imports.setdefault(
                    local, f"{base}.{alias.name}" if base else alias.name
                )


def summarize_module(
    module: str,
    path: str,
    resolved: str,
    sha256: str,
    tree: ast.Module,
) -> ModuleSummary:
    """Distill one parsed module into a :class:`ModuleSummary`."""
    summary = ModuleSummary(
        module=module, path=path, resolved=resolved, sha256=sha256
    )
    _collect_imports(summary, tree)
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            summary.globals[node.name] = (
                "class"
                if isinstance(node, ast.ClassDef)
                else "async_function"
                if isinstance(node, ast.AsyncFunctionDef)
                else "function"
            )
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    summary.globals[target.id] = _classify_global(
                        node.value, summary.imports
                    )
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            if node.value is not None:
                summary.globals[node.target.id] = _classify_global(
                    node.value, summary.imports
                )
    _extract_scope(summary, tree.body, prefix="")
    top_level = _FunctionExtractor(summary.imports, module_scope=True)
    top_level.visit_body(tree.body)
    summary.functions[MODULE_SCOPE] = FunctionInfo(
        qualname=MODULE_SCOPE,
        lineno=1,
        col=0,
        kind="module",
        calls=top_level.calls,
        sinks=top_level.sinks,
        submits=top_level.submits,
    )
    return summary


# ----------------------------------------------------------------------
# The index
# ----------------------------------------------------------------------
class ProjectIndex:
    """All module summaries of one lint run, keyed by module and path."""

    def __init__(self, summaries: list[ModuleSummary]) -> None:
        self.summaries = summaries
        self.modules: dict[str, ModuleSummary] = {}
        self.by_resolved: dict[str, ModuleSummary] = {}
        for summary in summaries:
            self.modules[summary.module] = summary
            self.by_resolved[summary.resolved] = summary

    def __len__(self) -> int:
        return len(self.summaries)


# ----------------------------------------------------------------------
# Disk cache
# ----------------------------------------------------------------------
def linter_fingerprint() -> str:
    """Hash of the linter's own sources: any rule change voids the cache."""
    package_dir = Path(__file__).resolve().parent
    digest = hashlib.sha256(str(INDEX_VERSION).encode())
    for source in sorted(package_dir.glob("*.py")):
        digest.update(source.name.encode())
        digest.update(source.read_bytes())
    return digest.hexdigest()


def file_digest(source: str) -> str:
    return hashlib.sha256(source.encode("utf-8")).hexdigest()


class IndexCache:
    """Content-hash-keyed store of module summaries and their findings.

    ``get`` hits only when the file's bytes are unchanged *and* the
    linter fingerprint matches; everything else re-indexes.  The cache
    deliberately stores per-file state only — cross-file rules always
    run on the reassembled index, which is what makes editing one
    helper correctly re-analyse every module that can reach it.
    """

    def __init__(self, path: Path | None) -> None:
        self.path = path
        self.fingerprint = linter_fingerprint()
        self.entries: dict[str, dict[str, Any]] = {}
        self.hits = 0
        self.misses = 0
        if path is not None and path.exists():
            try:
                doc = json.loads(path.read_text(encoding="utf-8"))
                if (
                    doc.get("version") == INDEX_VERSION
                    and doc.get("fingerprint") == self.fingerprint
                ):
                    self.entries = doc.get("entries", {})
            except (OSError, ValueError):
                self.entries = {}

    def get(self, resolved: str, sha256: str, display: str) -> ModuleSummary | None:
        entry = self.entries.get(resolved)
        if entry is None or entry.get("sha256") != sha256:
            self.misses += 1
            return None
        try:
            summary = ModuleSummary.from_json(entry)
        except (KeyError, TypeError, ValueError):
            self.misses += 1
            return None
        self.hits += 1
        summary.path = display  # display names follow the current invocation
        return summary

    def put(self, summary: ModuleSummary) -> None:
        self.entries[summary.resolved] = summary.to_json()

    def save(self) -> None:
        if self.path is None:
            return
        doc = {
            "version": INDEX_VERSION,
            "fingerprint": self.fingerprint,
            "entries": self.entries,
        }
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            tmp = self.path.with_suffix(self.path.suffix + ".tmp")
            tmp.write_text(json.dumps(doc), encoding="utf-8")
            tmp.replace(self.path)
        except OSError:
            pass  # caching is an optimisation, never a failure mode
